package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim/registry"
)

// Component is one entry of a Spec: a registered component kind plus its
// JSON-encoded options. Empty or null options mean factory defaults; the
// option schema of each kind is defined by its registry factory.
type Component struct {
	Kind    string          `json:"kind"`
	Options json.RawMessage `json:"options,omitempty"`
}

// NewComponent builds a Component from typed options (one of the registry
// *Options structs). nil opts means defaults. It panics if opts cannot be
// marshaled, which cannot happen for the scalar-only registry structs.
func NewComponent(kind string, opts any) Component {
	c := Component{Kind: kind}
	if opts != nil {
		b, err := json.Marshal(opts)
		if err != nil {
			panic(fmt.Sprintf("sim: encode %s options: %v", kind, err))
		}
		c.Options = b
	}
	return c
}

// Spec is the declarative, serializable description of one run
// configuration: which components to assemble, in order, plus the
// spec-level inputs (hint table, oracles, hardware overrides). Components
// are attached and installed in slice order; the conventional order —
// prefetchers (stream, cdp, markov, ghb, dbp) then policies (throttle, fdp,
// pab, hwfilter) — matches the fixed order the pre-registry assembler used,
// so specs written that way reproduce historical results bit-for-bit.
//
// A Spec round-trips through JSON (the server's sweep endpoint and the CLI
// -spec flag accept this encoding) and has a deterministic Canonical
// encoding that cache keys embed. Trace is deliberately excluded from both:
// tracing is observation-only and traced runs bypass the cache.
type Spec struct {
	// Name labels the configuration in reports.
	Name string `json:"name"`
	// Components lists the prefetchers and control policies to assemble.
	Components []Component `json:"components,omitempty"`

	// Core selects the core timing model: CoreInterval (the default, no
	// options) or CoreOoO with cpu.OoOOptions. Nil and an explicit
	// "interval" are canonically identical, so both share cache keys.
	Core *Component `json:"core,omitempty"`

	// Hints is the compiler-provided hint table consumed by hint-aware
	// components (cdp: ECDP mode). Validation rejects hints no component
	// consumes.
	Hints *core.HintTable `json:"hints,omitempty"`

	// IdealLDS converts LDS-load misses to hits (Figure 1 oracle).
	IdealLDS bool `json:"ideal_lds,omitempty"`
	// NoPollution gives prefetches an unbounded side buffer (§2.3 oracle).
	NoPollution bool `json:"no_pollution,omitempty"`
	// ProfilePGs collects pointer-group usefulness during the run.
	ProfilePGs bool `json:"profile_pgs,omitempty"`

	// Trace enables interval-level telemetry. Observation-only: excluded
	// from serialization and from the canonical encoding.
	Trace bool `json:"-"`

	// Engine selects the multi-core execution engine: EngineSerial (the
	// default, also selected by "") steps cores sequentially, EngineParallel
	// steps each epoch's cores on up to min(GOMAXPROCS, cores) goroutines.
	// Both drive the same
	// epoch-barrier machinery (internal/sim/engine) and produce byte-identical
	// reports, so Engine — like Trace — is excluded from the canonical
	// encoding: it changes wall-clock time, never results. Single-core runs
	// ignore it. It does round-trip through JSON, so a spec submitted to
	// the job service keeps its choice.
	Engine string `json:"engine,omitempty"`

	// IntervalLen overrides the feedback interval (L2 evictions).
	IntervalLen int `json:"interval_len,omitempty"`
	// MemCfg / CPUCfg / DRAMCfg override the paper-default hardware
	// configuration (DRAMCfg applies to the shared controller; its
	// RequestBuffer is still scaled by core count when zero).
	MemCfg  *memsys.Config `json:"mem_cfg,omitempty"`
	CPUCfg  *cpu.Config    `json:"cpu_cfg,omitempty"`
	DRAMCfg *dram.Config   `json:"dram_cfg,omitempty"`
	// InitialLevel overrides the starting aggressiveness (default
	// Aggressive, the paper's baseline configuration).
	InitialLevel *prefetch.AggLevel `json:"initial_level,omitempty"`
}

// Engine values for Spec.Engine.
const (
	// EngineSerial steps the cores of a mix sequentially through the
	// epoch-barrier engine. The default.
	EngineSerial = "serial"
	// EngineParallel steps each epoch's cores on up to min(GOMAXPROCS,
	// cores) goroutines; reports are byte-identical to EngineSerial.
	EngineParallel = "parallel"
)

// NewSpec returns a Spec named name with default-option components of the
// given kinds, in order. Use With / NewComponent for non-default options.
func NewSpec(name string, kinds ...string) Spec {
	sp := Spec{Name: name}
	for _, k := range kinds {
		sp.Components = append(sp.Components, Component{Kind: k})
	}
	return sp
}

// With returns a copy of the spec with comps appended.
func (sp Spec) With(comps ...Component) Spec {
	sp.Components = append(sp.Components[:len(sp.Components):len(sp.Components)], comps...)
	return sp
}

// WithHints returns a copy of the spec with the hint table set (ECDP).
func (sp Spec) WithHints(h *core.HintTable) Spec {
	sp.Hints = h
	return sp
}

// WithCore returns a copy of the spec running on the given core model
// (CoreInterval or CoreOoO) with typed options (cpu.OoOOptions for ooo; nil
// means defaults).
func (sp Spec) WithCore(kind string, opts any) Spec {
	c := NewComponent(kind, opts)
	sp.Core = &c
	return sp
}

// Validation sentinels. A failed Validate returns a *SpecError wrapping one
// of these, so callers can classify failures with errors.Is.
var (
	// ErrUnknownComponent: a component kind is not in the registry catalog.
	ErrUnknownComponent = errors.New("unknown component")
	// ErrComponentConflict: components that cannot coexist (a duplicate
	// kind, or two policies claiming throttle control, e.g. throttle+fdp).
	ErrComponentConflict = errors.New("conflicting components")
	// ErrBadOptions: a component's options failed to decode or validate.
	ErrBadOptions = errors.New("invalid component options")
	// ErrBadComposition: a structurally valid spec that cannot work (hints
	// with no consumer, pab with fewer than two switchable prefetchers).
	ErrBadComposition = errors.New("invalid composition")
)

// ParseSpec decodes one Spec JSON document strictly: a field Spec does not
// define is an error instead of being silently dropped. It is the decoder
// behind the CLIs' -spec flag; callers still Validate the result.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// SpecError is a typed spec-validation failure: which spec, which component
// (empty for spec-level problems), what went wrong. It unwraps to one of
// the Err* sentinels.
type SpecError struct {
	Spec      string
	Component string
	Reason    string
	Err       error
}

func (e *SpecError) Error() string {
	if e.Component != "" {
		return fmt.Sprintf("spec %q: component %q: %s", e.Spec, e.Component, e.Reason)
	}
	return fmt.Sprintf("spec %q: %s", e.Spec, e.Reason)
}

func (e *SpecError) Unwrap() error { return e.Err }

// Validate checks the spec against the registry catalog and the composition
// rules. It is purely static — nothing is constructed — so servers can
// reject bad requests before scheduling work. Errors are *SpecError.
func (sp Spec) Validate() error {
	switch sp.Engine {
	case "", EngineSerial, EngineParallel:
	default:
		return &SpecError{Spec: sp.Name, Err: ErrBadComposition,
			Reason: fmt.Sprintf("unknown engine %q (use %q or %q)", sp.Engine, EngineSerial, EngineParallel)}
	}
	if _, err := sp.decodeCore(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(sp.Components))
	var claimants []string
	switchable := 0
	hintsConsumed := false
	for _, comp := range sp.Components {
		info, ok := registry.Lookup(comp.Kind)
		if !ok {
			return &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrUnknownComponent,
				Reason: (&registry.UnknownComponentError{Kind: comp.Kind}).Error()}
		}
		if seen[comp.Kind] {
			return &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrComponentConflict,
				Reason: "listed twice"}
		}
		seen[comp.Kind] = true
		if _, err := registry.DecodeOptions(comp.Kind, comp.Options); err != nil {
			return &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrBadOptions,
				Reason: err.Error()}
		}
		if info.Switchable {
			switchable++
		}
		if info.ConsumesHints {
			hintsConsumed = true
		}
		if info.ClaimsThrottle {
			claimants = append(claimants, comp.Kind)
		}
	}
	if len(claimants) > 1 {
		return &SpecError{Spec: sp.Name, Err: ErrComponentConflict,
			Reason: fmt.Sprintf("%s both claim prefetcher aggressiveness control and would fight over the same levels; keep exactly one of them",
				strings.Join(claimants, " and "))}
	}
	for _, comp := range sp.Components {
		info, _ := registry.Lookup(comp.Kind)
		if info.MinSwitchable > switchable {
			return &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrBadComposition,
				Reason: fmt.Sprintf("needs at least %d switchable prefetchers to select between, spec has %d (switchable kinds: %s)",
					info.MinSwitchable, switchable, strings.Join(switchableKinds(), ", "))}
		}
	}
	if sp.Hints != nil && !hintsConsumed {
		return &SpecError{Spec: sp.Name, Err: ErrBadComposition,
			Reason: `hints are set but no component consumes them; add "cdp" (hint-filtered CDP is the paper's ECDP) or drop the hint table`}
	}
	return nil
}

// switchableKinds lists the registered prefetcher kinds that support
// on/off switching, for actionable composition errors.
func switchableKinds() []string {
	var out []string
	for _, k := range registry.Prefetchers() {
		if info, ok := registry.Lookup(k); ok && info.Switchable {
			out = append(out, k)
		}
	}
	return out
}

// canonComponent is the canonical form of one component: kind, factory
// version, and the options normalized through a decode/re-encode
// round-trip so input formatting cannot split cache keys.
type canonComponent struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Options json.RawMessage `json:"options"`
}

// canonSpec is the canonical, versioned form of a Spec. Field order is
// fixed by the struct; every pointer field is expanded to value-or-null;
// the hint table serializes as sorted (pc, pos, neg) triples. Trace and
// Engine are deliberately absent: tracing is observation-only, and the
// serial and parallel engines produce byte-identical results, so neither
// may split cache keys.
type canonSpec struct {
	Name         string           `json:"name"`
	Components   []canonComponent `json:"components"`
	Hints        json.RawMessage  `json:"hints"`
	IdealLDS     bool             `json:"ideal_lds"`
	NoPollution  bool             `json:"no_pollution"`
	ProfilePGs   bool             `json:"profile_pgs"`
	IntervalLen  int              `json:"interval_len"`
	MemCfg       json.RawMessage  `json:"mem_cfg"`
	CPUCfg       json.RawMessage  `json:"cpu_cfg"`
	DRAMCfg      json.RawMessage  `json:"dram_cfg"`
	InitialLevel *int             `json:"initial_level"`
	// Core is appended last and omitted entirely for the interval core, so
	// a spec that names it encodes to the same bytes as one that omits it
	// (see canonicalCore).
	Core json.RawMessage `json:"core,omitempty"`
}

// rawOrNull marshals v (a pointer to a plain-value config struct) or emits
// JSON null when it is nil. The config structs contain only scalar exported
// fields, so encoding/json is deterministic for them.
func rawOrNull(v any) json.RawMessage {
	if v == nil {
		return json.RawMessage("null")
	}
	b, err := json.Marshal(v)
	if err != nil {
		// Config structs are scalar-only; Marshal cannot fail on them.
		panic(fmt.Sprintf("sim: canonical encode: %v", err))
	}
	return b
}

// nilable converts a typed nil pointer into an untyped nil so rawOrNull can
// test it.
func nilable[T any](p *T) any {
	if p == nil {
		return nil
	}
	return p
}

// Canonical returns the spec's deterministic encoding — the bytes cache
// keys embed. Two specs describing the same configuration (regardless of
// option formatting or omitted-vs-explicit defaults) encode identically;
// any semantic difference, including a component factory's Version bump,
// changes the bytes. It fails only on a spec that does not validate.
func (sp Spec) Canonical() ([]byte, error) {
	cs := canonSpec{
		Name:        sp.Name,
		IdealLDS:    sp.IdealLDS,
		NoPollution: sp.NoPollution,
		ProfilePGs:  sp.ProfilePGs,
		IntervalLen: sp.IntervalLen,
	}
	for _, comp := range sp.Components {
		info, ok := registry.Lookup(comp.Kind)
		if !ok {
			return nil, &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrUnknownComponent,
				Reason: (&registry.UnknownComponentError{Kind: comp.Kind}).Error()}
		}
		opts, err := registry.CanonicalOptions(comp.Kind, comp.Options)
		if err != nil {
			return nil, &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrBadOptions,
				Reason: err.Error()}
		}
		cs.Components = append(cs.Components, canonComponent{Kind: comp.Kind, Version: info.Version, Options: opts})
	}
	ooo, err := sp.decodeCore()
	if err != nil {
		return nil, err
	}
	cs.Core = canonicalCore(ooo)
	cs.Hints = rawOrNull(nilable(sp.Hints))
	cs.MemCfg = rawOrNull(nilable(sp.MemCfg))
	cs.CPUCfg = rawOrNull(nilable(sp.CPUCfg))
	cs.DRAMCfg = rawOrNull(nilable(sp.DRAMCfg))
	if sp.InitialLevel != nil {
		lv := int(*sp.InitialLevel)
		cs.InitialLevel = &lv
	}
	b, err := json.Marshal(cs)
	if err != nil {
		panic(fmt.Sprintf("sim: canonical encode: %v", err))
	}
	return b, nil
}
