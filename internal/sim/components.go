package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"ldsprefetch/internal/baselines/dbp"
	"ldsprefetch/internal/baselines/fdp"
	"ldsprefetch/internal/baselines/ghb"
	"ldsprefetch/internal/baselines/hwfilter"
	"ldsprefetch/internal/baselines/markov"
	"ldsprefetch/internal/baselines/pab"
	"ldsprefetch/internal/core"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/stream"
	"ldsprefetch/internal/telemetry"
)

// ThrottleOptions parameterizes the paper's coordinated prefetcher
// throttling (Section 4, Table 3). It is the only component with options:
// every other kind takes none, and its table sizes are the paper's.
type ThrottleOptions struct {
	// Thresholds overrides the accuracy/coverage decision thresholds
	// (nil = core.DefaultThresholds).
	Thresholds *core.Thresholds `json:"thresholds,omitempty"`
}

// buildEnv is the per-run context components build against: the assembled
// memory system and the spec-level inputs a component may consume.
type buildEnv struct {
	ms        *memsys.MemSys
	blockSize int
	// hints is the profiled hint table (nil outside ECDP runs); only
	// components with consumesHints read it.
	hints *core.HintTable
	// trace is the run's telemetry sink (nil when tracing is off).
	trace *telemetry.Trace
}

// instance is one constructed prefetcher plus its control surfaces. Nil
// throttleable/switchable mean the prefetcher does not expose that surface.
type instance struct {
	pf           memsys.Prefetcher
	src          prefetch.Source
	throttleable prefetch.Throttleable
	switchable   pab.Switchable
}

// component is one entry of the component table: a spec kind with its
// version and either a prefetcher constructor or a control policy's install
// hook.
type component struct {
	kind string
	// version participates in cache keys; bump it whenever the component's
	// simulated behaviour or option semantics change.
	version int

	// Prefetcher metadata, read by Validate without building anything.
	throttleable  bool
	switchable    bool
	consumesHints bool
	// Policy metadata. claimsThrottle marks policies that own prefetcher
	// aggressiveness levels (throttle, fdp); a spec may hold at most one.
	// minSwitchable is the number of switchable prefetchers the policy
	// needs to be meaningful (pab: 2).
	claimsThrottle bool
	minSwitchable  int

	// newOptions allocates the typed options struct at its defaults; nil
	// means the kind takes no options.
	newOptions func() any

	// Exactly one of prefetcher and install is set. prefetcher builds the
	// prefetcher against env; install wires a policy over every prefetcher
	// built for the run (pfs, in spec order), after all of them attached.
	prefetcher func(env *buildEnv) instance
	install    func(env *buildEnv, opts any, pfs []instance)
}

// components is the catalog of spec kinds: the paper's stream prefetcher,
// (E)CDP and coordinated throttling, plus the rivals it compares against.
// It is sorted by kind, which is the order catalogs and errors list them in.
// Table sizes are the paper's (or the rival's published) constants.
var components = []component{
	{
		kind: "cdp", version: 1,
		throttleable: true, switchable: true, consumesHints: true,
		prefetcher: func(env *buildEnv) instance {
			cfg := core.DefaultCDPConfig()
			cfg.BlockSize = env.blockSize
			cfg.Hints = env.hints
			cd := core.NewCDP(cfg, env.ms)
			return instance{pf: cd, src: prefetch.SrcCDP, throttleable: cd, switchable: cd}
		},
	},
	{
		kind: "dbp", version: 1,
		throttleable: true,
		prefetcher: func(env *buildEnv) instance {
			// A 128-entry potential-producer window, a 256-entry
			// correlation table.
			db := dbp.New(128, 256, env.ms.Mem(), env.ms)
			return instance{pf: db, src: prefetch.SrcDBP, throttleable: db}
		},
	},
	{
		kind: "fdp", version: 1,
		claimsThrottle: true,
		install: func(env *buildEnv, _ any, pfs []instance) {
			ctl := fdp.NewController(env.ms.Feedback())
			n := 0
			for _, inst := range pfs {
				if inst.throttleable != nil {
					ctl.Add(inst.src, inst.throttleable)
					n++
				}
			}
			if n > 0 {
				ctl.Install()
				env.ms.ObserveOutcomes(ctl.OnOutcome)
			}
		},
	},
	{
		kind: "ghb", version: 1,
		throttleable: true,
		prefetcher: func(env *buildEnv) instance {
			gh := ghb.New(1024, env.ms.BlockShift(), env.ms)
			return instance{pf: gh, src: prefetch.SrcGHB, throttleable: gh}
		},
	},
	{
		// The filter keys on the request source, not on prefetcher
		// instances: it gates every CDP request and learns from every CDP
		// outcome.
		kind: "hwfilter", version: 1,
		install: func(env *buildEnv, _ any, _ []instance) {
			f := hwfilter.New(env.ms.BlockShift())
			ms := env.ms
			ms.FilterPrefetch = func(r prefetch.Request) bool {
				if r.Src != prefetch.SrcCDP {
					return true
				}
				return f.Allow(r)
			}
			ms.ObserveOutcomes(func(ev memsys.OutcomeEvent) {
				if ev.Src == prefetch.SrcCDP && (ev.Kind == memsys.PrefetchUsed || ev.Kind == memsys.PrefetchUseless) {
					f.Outcome(ev.BlockAddr, ev.Kind == memsys.PrefetchUsed)
				}
			})
		},
	},
	{
		kind: "markov", version: 1,
		throttleable: true,
		prefetcher: func(env *buildEnv) instance {
			mk := markov.New(markov.TableEntriesFor1MB, env.ms.BlockShift(), env.ms)
			return instance{pf: mk, src: prefetch.SrcMarkov, throttleable: mk}
		},
	},
	{
		// Gendler-style best-prefetcher-only selection: selecting one
		// prefetcher needs at least two switchable candidates.
		kind: "pab", version: 1,
		minSwitchable: 2,
		install: func(env *buildEnv, _ any, pfs []instance) {
			sel := pab.NewSelector(env.ms.Feedback())
			for _, inst := range pfs {
				if inst.switchable != nil {
					sel.Add(inst.src, inst.switchable)
				}
			}
			sel.Install()
		},
	},
	{
		kind: "stream", version: 1,
		throttleable: true, switchable: true,
		prefetcher: func(env *buildEnv) instance {
			sp := stream.New(env.ms.BlockShift(), env.ms)
			return instance{pf: sp, src: prefetch.SrcStream, throttleable: sp, switchable: sp}
		},
	},
	{
		kind: "throttle", version: 1,
		claimsThrottle: true,
		newOptions:     func() any { return new(ThrottleOptions) },
		install: func(env *buildEnv, opts any, pfs []instance) {
			th := core.DefaultThresholds()
			if o := opts.(*ThrottleOptions); o.Thresholds != nil {
				th = *o.Thresholds
			}
			thr := core.NewThrottler(th, env.ms.Feedback())
			n := 0
			for _, inst := range pfs {
				if inst.throttleable != nil {
					thr.Add(inst.src, inst.throttleable)
					n++
				}
			}
			if n > 0 {
				thr.Trace = env.trace
				thr.Install()
			}
		},
	},
}

// lookup returns kind's table entry, or nil.
func lookup(kind string) *component {
	for i := range components {
		if components[i].kind == kind {
			return &components[i]
		}
	}
	return nil
}

// UnknownComponentError reports a spec component whose kind is not in the
// component table. The message lists every kind, so it is actionable as-is.
type UnknownComponentError struct {
	Kind string
}

func (e *UnknownComponentError) Error() string {
	return fmt.Sprintf("unknown component %q (known components: %s)",
		e.Kind, strings.Join(kinds(), ", "))
}

// kinds lists every component kind, sorted.
func kinds() []string {
	out := make([]string, len(components))
	for i, c := range components {
		out[i] = c.kind
	}
	return out
}

// decode resolves comp against the component table and strictly decodes
// its options. Errors are *SpecError wrapping ErrUnknownComponent or
// ErrBadOptions.
func (sp Spec) decode(comp Component) (*component, any, error) {
	c := lookup(comp.Kind)
	if c == nil {
		return nil, nil, &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrUnknownComponent,
			Reason: (&UnknownComponentError{Kind: comp.Kind}).Error()}
	}
	var opts any = new(struct{})
	if c.newOptions != nil {
		opts = c.newOptions()
	}
	if err := decodeOptions(comp.Kind, comp.Options, opts); err != nil {
		return nil, nil, &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrBadOptions,
			Reason: err.Error()}
	}
	return c, opts, nil
}

// decodeOptions decodes raw into opts, a pointer to a typed options struct
// holding its defaults. Empty or null raw keeps the defaults; unknown
// fields and trailing data are errors, so misspelled or removed option
// names cannot be silently ignored (and cannot leak into cache keys).
// Errors are prefixed with kind.
func decodeOptions(kind string, raw json.RawMessage, opts any) error {
	if len(raw) == 0 || bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(opts); err != nil {
		return fmt.Errorf("%s options: %w", kind, err)
	}
	if dec.More() {
		return fmt.Errorf("%s options: trailing data after JSON value", kind)
	}
	return nil
}

// ComponentLines returns the -list-configs catalog lines of the component
// table in kind order: one per prefetcher with its control surfaces, and
// one per policy with its composition rules.
func ComponentLines() (prefetchers, policies []string) {
	for _, c := range components {
		if c.prefetcher != nil {
			prefetchers = append(prefetchers, fmt.Sprintf("%-10s v%-2d throttleable=%-5v switchable=%-5v consumes_hints=%v",
				c.kind, c.version, c.throttleable, c.switchable, c.consumesHints))
		} else {
			policies = append(policies, fmt.Sprintf("%-10s v%-2d claims_throttle=%-5v min_switchable=%d",
				c.kind, c.version, c.claimsThrottle, c.minSwitchable))
		}
	}
	return prefetchers, policies
}
