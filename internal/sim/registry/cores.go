package registry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// DefaultCoreKind is the core model a spec without an explicit Core
// component runs on. It is deliberately omitted from canonical spec
// encodings so pre-seam cache keys and golden reports are untouched.
const DefaultCoreKind = "interval"

// CoreEnv is the per-run context a core-model factory builds against.
type CoreEnv struct {
	MS     *memsys.MemSys
	Trace  *trace.Trace
	CPUCfg cpu.Config
}

// CoreModel is a registered core timing-model factory — the third component
// class next to prefetchers and policies, selected by sim.Spec.Core.
type CoreModel struct {
	// Kind is the spec name ("interval", "ooo").
	Kind string
	// Version participates in cache keys for non-default cores; bump it
	// whenever the model's simulated behaviour or option semantics change.
	Version int

	// NewOptions allocates the factory's typed options struct at defaults.
	NewOptions func() any
	// Validate checks decoded options (optional).
	Validate func(opts any) error
	// Build constructs the model over env. opts is the struct NewOptions
	// allocated, already decoded and validated.
	Build func(env *CoreEnv, opts any) (*cpu.Core, error)
}

var coreModels = map[string]*CoreModel{}

// RegisterCore adds a core-model factory to the catalog. Core kinds share
// the component namespace: a kind may not collide with a prefetcher or
// policy registration.
func RegisterCore(f *CoreModel) {
	checkRegistration(f.Kind, f.NewOptions != nil, f.Build != nil)
	if _, ok := coreModels[f.Kind]; ok {
		panic(fmt.Sprintf("registry: duplicate component kind %q", f.Kind))
	}
	coreModels[f.Kind] = f
}

// LookupCore returns the core-model factory for kind.
func LookupCore(kind string) (*CoreModel, bool) {
	f, ok := coreModels[kind]
	return f, ok
}

// Cores lists the registered core-model kinds, sorted.
func Cores() []string {
	var out []string
	for k := range coreModels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// UnknownCoreError reports a spec core whose kind is not registered. The
// core catalog is embedded so the message is actionable as-is (it reaches
// CLI users and the server's HTTP 400 responses verbatim).
type UnknownCoreError struct {
	Kind string
}

func (e *UnknownCoreError) Error() string {
	return fmt.Sprintf("unknown core model %q (known core models: %s)",
		e.Kind, strings.Join(Cores(), ", "))
}

// DecodeCoreOptions decodes a core component's raw JSON options into its
// factory's typed options struct and validates them, under the same rules as
// DecodeOptions (empty/null = defaults, unknown fields are errors).
func DecodeCoreOptions(kind string, raw json.RawMessage) (any, error) {
	f, ok := coreModels[kind]
	if !ok {
		return nil, &UnknownCoreError{Kind: kind}
	}
	return decodeInto(kind, f.NewOptions, f.Validate, raw)
}

// CanonicalCoreOptions returns the deterministic re-encoding of a core
// component's options (decode/validate round-trip, like CanonicalOptions).
func CanonicalCoreOptions(kind string, raw json.RawMessage) (json.RawMessage, error) {
	opts, err := DecodeCoreOptions(kind, raw)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(opts)
	if err != nil {
		panic(fmt.Sprintf("registry: canonical encode %s: %v", kind, err))
	}
	return b, nil
}

// IntervalOptions parameterizes the default dependence-graph core model. It
// has no options: the window and width come from the spec-level CPUCfg,
// which predates the core seam and stays where existing specs put it.
type IntervalOptions struct{}

// OoOOptions aliases the out-of-order model's option struct so callers can
// reference it next to the other registry option types.
type OoOOptions = cpu.OoOOptions

func init() {
	RegisterCore(&CoreModel{
		Kind:       DefaultCoreKind,
		Version:    1,
		NewOptions: func() any { return new(IntervalOptions) },
		Build: func(env *CoreEnv, opts any) (*cpu.Core, error) {
			return cpu.NewInterval(env.CPUCfg, env.MS, env.Trace), nil
		},
	})
	RegisterCore(&CoreModel{
		Kind:       "ooo",
		Version:    1,
		NewOptions: func() any { return new(OoOOptions) },
		Validate: func(opts any) error {
			return opts.(*OoOOptions).Validate()
		},
		Build: func(env *CoreEnv, opts any) (*cpu.Core, error) {
			return cpu.NewOoO(env.CPUCfg, *opts.(*OoOOptions), env.MS, env.Trace), nil
		},
	})
}
