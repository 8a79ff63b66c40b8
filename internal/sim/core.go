package sim

import (
	"encoding/json"
	"fmt"

	"ldsprefetch/internal/cpu"
)

// Core model kinds for Spec.Core. Both build the one cpu.Core; they differ
// only in whether a branch predictor is attached.
const (
	// CoreInterval is the default dependence-graph model (cpu.NewInterval).
	// It takes no options: the window and width come from Spec.CPUCfg.
	CoreInterval = "interval"
	// CoreOoO is the speculative out-of-order model (cpu.NewOoO) with
	// cpu.OoOOptions.
	CoreOoO = "ooo"
)

// CoreOoOVersion participates in the cache keys of ooo specs; bump it
// whenever the ooo model's simulated behaviour or option semantics change.
// The interval core carries no version: it is absent from canonical
// encodings, so specs that name it and specs that omit it share keys.
const CoreOoOVersion = 1

// UnknownCoreError reports a spec core whose kind is neither CoreInterval
// nor CoreOoO. The message lists both, so it is actionable as-is (it reaches
// CLI users and the server's HTTP 400 responses verbatim).
type UnknownCoreError struct {
	Kind string
}

func (e *UnknownCoreError) Error() string {
	return fmt.Sprintf("unknown core model %q (known core models: %s, %s)",
		e.Kind, CoreInterval, CoreOoO)
}

// decodeCore strictly decodes sp.Core. It returns nil options for the
// interval core (absent or explicit) and the validated options for ooo.
// Errors are *SpecError wrapping ErrUnknownComponent or ErrBadOptions.
func (sp Spec) decodeCore() (*cpu.OoOOptions, error) {
	if sp.Core == nil {
		return nil, nil
	}
	var err error
	var opts *cpu.OoOOptions
	switch sp.Core.Kind {
	case CoreInterval:
		err = decodeOptions(CoreInterval, sp.Core.Options, &struct{}{})
	case CoreOoO:
		opts = new(cpu.OoOOptions)
		if err = decodeOptions(CoreOoO, sp.Core.Options, opts); err == nil {
			if err = opts.Validate(); err != nil {
				err = fmt.Errorf("%s options: %w", CoreOoO, err)
			}
		}
	default:
		return nil, &SpecError{Spec: sp.Name, Component: sp.Core.Kind, Err: ErrUnknownComponent,
			Reason: (&UnknownCoreError{Kind: sp.Core.Kind}).Error()}
	}
	if err != nil {
		return nil, &SpecError{Spec: sp.Name, Component: sp.Core.Kind, Err: ErrBadOptions,
			Reason: err.Error()}
	}
	return opts, nil
}

// canonicalCore is the canonical encoding of the core: nil for the interval
// core, the versioned ooo component otherwise.
func canonicalCore(opts *cpu.OoOOptions) json.RawMessage {
	if opts == nil {
		return nil
	}
	b, err := json.Marshal(opts)
	if err == nil {
		b, err = json.Marshal(canonComponent{Kind: CoreOoO, Version: CoreOoOVersion, Options: b})
	}
	if err != nil {
		// OoOOptions is scalar-only; Marshal cannot fail on it.
		panic(fmt.Sprintf("sim: canonical encode: %v", err))
	}
	return b
}
