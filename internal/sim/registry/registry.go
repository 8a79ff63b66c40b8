// Package registry is the simulator's component catalog. Every prefetcher
// (stream, cdp, markov, ghb, dbp) and every control policy (throttle, fdp,
// pab, hwfilter) registers a named factory here, with its own typed,
// versioned options; sim assembles a system by walking a declarative spec
// and looking each component up instead of switching on booleans. The core
// timing model is not a registered component: sim decodes Spec.Core itself,
// through the same strict option decoder (DecodeInto).
//
// Adding a component is one file in this package: define an options struct,
// call RegisterPrefetcher or RegisterPolicy from init, and write its tests.
// The spec validator, the cache-key encoder, the experiment definitions, the
// CLIs, and the job server all consume the catalog generically — none of
// them enumerate component kinds.
//
// Each factory carries static metadata (Throttleable, Switchable,
// ConsumesHints, ClaimsThrottle, MinSwitchable) so composition rules can be
// checked without constructing a memory system, and a Version that
// participates in cache keys so changing a component's semantics invalidates
// exactly the cached results that used it.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ldsprefetch/internal/baselines/pab"
	"ldsprefetch/internal/core"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/telemetry"
)

// BuildEnv is the per-run context factories build against: the assembled
// memory system and the spec-level inputs a component may consume.
type BuildEnv struct {
	MS         *memsys.MemSys
	BlockSize  int
	BlockShift uint
	// Hints is the profiled hint table (nil outside ECDP runs); only
	// factories with ConsumesHints read it.
	Hints *core.HintTable
	// Trace is the run's telemetry sink (nil when tracing is off).
	Trace *telemetry.Trace
}

// Instance is one constructed prefetcher plus its control surfaces. Nil
// Throttleable/Switchable mean the prefetcher does not expose that surface.
type Instance struct {
	Prefetcher   memsys.Prefetcher
	Source       prefetch.Source
	Throttleable prefetch.Throttleable
	Switchable   pab.Switchable
}

// Prefetcher is a registered prefetcher factory.
type Prefetcher struct {
	// Kind is the spec name ("stream", "cdp", ...).
	Kind string
	// Version participates in cache keys; bump it whenever the component's
	// simulated behaviour or option semantics change.
	Version int

	// Static metadata, used by spec validation without building anything.
	Throttleable  bool
	Switchable    bool
	ConsumesHints bool

	// NewOptions allocates the factory's typed options struct at defaults.
	NewOptions func() any
	// Validate checks decoded options (optional).
	Validate func(opts any) error
	// Build constructs the prefetcher against env. opts is the struct
	// NewOptions allocated, already decoded and validated.
	Build func(env *BuildEnv, opts any) (Instance, error)
}

// Controller is an instantiated control policy, mid-assembly: every
// constructed prefetcher is offered to it via Attach (in spec order), then
// Install wires it into the memory system's feedback hooks.
type Controller interface {
	Attach(inst Instance)
	Install()
}

// Policy is a registered control-policy factory.
type Policy struct {
	Kind    string
	Version int

	// ClaimsThrottle marks policies that take ownership of prefetcher
	// aggressiveness levels (throttle, fdp). A spec may contain at most one
	// such policy: two of them would silently fight over the same knob.
	ClaimsThrottle bool
	// MinSwitchable is the minimum number of switchable prefetchers the
	// policy needs to be meaningful (pab: 2). Zero means no requirement.
	MinSwitchable int

	NewOptions func() any
	Validate   func(opts any) error
	Build      func(env *BuildEnv, opts any) Controller
}

// Info is the registration metadata of one component kind, the union of the
// prefetcher and policy metadata with a discriminator.
type Info struct {
	Kind       string
	Version    int
	Prefetcher bool // false: control policy

	// Prefetcher metadata (zero for policies).
	Throttleable  bool
	Switchable    bool
	ConsumesHints bool

	// Policy metadata (zero for prefetchers).
	ClaimsThrottle bool
	MinSwitchable  int
}

var (
	prefetchers = map[string]*Prefetcher{}
	policies    = map[string]*Policy{}
)

// RegisterPrefetcher adds a prefetcher factory to the catalog. It panics on
// a duplicate or malformed registration: factories register from init, so
// any mistake is a programming error caught by the first test run.
func RegisterPrefetcher(f *Prefetcher) {
	checkRegistration(f.Kind, f.NewOptions != nil, f.Build != nil)
	prefetchers[f.Kind] = f
}

// RegisterPolicy adds a control-policy factory to the catalog.
func RegisterPolicy(f *Policy) {
	checkRegistration(f.Kind, f.NewOptions != nil, f.Build != nil)
	policies[f.Kind] = f
}

func checkRegistration(kind string, hasOptions, hasBuild bool) {
	if kind == "" || !hasOptions || !hasBuild {
		panic(fmt.Sprintf("registry: incomplete registration of %q", kind))
	}
	if _, ok := prefetchers[kind]; ok {
		panic(fmt.Sprintf("registry: duplicate component kind %q", kind))
	}
	if _, ok := policies[kind]; ok {
		panic(fmt.Sprintf("registry: duplicate component kind %q", kind))
	}
}

// LookupPrefetcher returns the prefetcher factory for kind.
func LookupPrefetcher(kind string) (*Prefetcher, bool) {
	f, ok := prefetchers[kind]
	return f, ok
}

// LookupPolicy returns the control-policy factory for kind.
func LookupPolicy(kind string) (*Policy, bool) {
	f, ok := policies[kind]
	return f, ok
}

// Lookup returns the metadata of any registered component kind.
func Lookup(kind string) (Info, bool) {
	if f, ok := prefetchers[kind]; ok {
		return Info{Kind: f.Kind, Version: f.Version, Prefetcher: true,
			Throttleable: f.Throttleable, Switchable: f.Switchable,
			ConsumesHints: f.ConsumesHints}, true
	}
	if f, ok := policies[kind]; ok {
		return Info{Kind: f.Kind, Version: f.Version,
			ClaimsThrottle: f.ClaimsThrottle, MinSwitchable: f.MinSwitchable}, true
	}
	return Info{}, false
}

// Prefetchers lists the registered prefetcher kinds, sorted.
func Prefetchers() []string {
	var out []string
	for k := range prefetchers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Policies lists the registered control-policy kinds, sorted.
func Policies() []string {
	var out []string
	for k := range policies {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Catalog lists every registered component kind, sorted — the "known
// components" list validation errors and the server's 400 responses carry.
func Catalog() []string {
	out := append(Prefetchers(), Policies()...)
	sort.Strings(out)
	return out
}

// UnknownComponentError reports a spec component whose kind is not in the
// catalog. The catalog is embedded so the message is actionable as-is.
type UnknownComponentError struct {
	Kind string
}

func (e *UnknownComponentError) Error() string {
	return fmt.Sprintf("unknown component %q (known components: %s)",
		e.Kind, strings.Join(Catalog(), ", "))
}

// options returns kind's NewOptions and Validate regardless of class.
func options(kind string) (func() any, func(any) error, bool) {
	if f, ok := prefetchers[kind]; ok {
		return f.NewOptions, f.Validate, true
	}
	if f, ok := policies[kind]; ok {
		return f.NewOptions, f.Validate, true
	}
	return nil, nil, false
}

// DecodeOptions decodes a component's raw JSON options into its factory's
// typed options struct and validates them. Empty or null raw means factory
// defaults; unknown fields and trailing data are errors, so misspelled
// option names cannot be silently ignored (and cannot leak into cache keys).
func DecodeOptions(kind string, raw json.RawMessage) (any, error) {
	newOptions, validate, ok := options(kind)
	if !ok {
		return nil, &UnknownComponentError{Kind: kind}
	}
	opts := newOptions()
	if err := DecodeInto(kind, raw, opts, validate); err != nil {
		return nil, err
	}
	return opts, nil
}

// DecodeInto decodes raw into opts, a pointer to a typed options struct
// holding its defaults, then runs validate (when non-nil) on it. It is the
// one strict decode path behind DecodeOptions and sim's core decode: empty
// or null raw keeps the defaults, and unknown fields or trailing data are
// errors. Errors are prefixed with kind.
func DecodeInto(kind string, raw json.RawMessage, opts any, validate func(any) error) error {
	if len(raw) > 0 && !bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(opts); err != nil {
			return fmt.Errorf("%s options: %w", kind, err)
		}
		if dec.More() {
			return fmt.Errorf("%s options: trailing data after JSON value", kind)
		}
	}
	if validate != nil {
		if err := validate(opts); err != nil {
			return fmt.Errorf("%s options: %w", kind, err)
		}
	}
	return nil
}

// CanonicalOptions returns the deterministic re-encoding of a component's
// options: the JSON of the typed options struct after a decode/validate
// round-trip. Input formatting, field order, and omitted-vs-explicit
// defaults all normalize to the same bytes, so they cannot split cache keys.
func CanonicalOptions(kind string, raw json.RawMessage) (json.RawMessage, error) {
	opts, err := DecodeOptions(kind, raw)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(opts)
	if err != nil {
		// Options structs are scalar-only by construction; Marshal cannot
		// fail on them.
		panic(fmt.Sprintf("registry: canonical encode %s: %v", kind, err))
	}
	return b, nil
}
