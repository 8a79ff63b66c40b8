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

// StreamOptions parameterizes the POWER4-style stream prefetcher.
type StreamOptions struct {
	// Streams is the number of tracked streams (0 = the paper's 32).
	Streams int `json:"streams,omitempty"`
}

// CDPOptions parameterizes the content-directed prefetcher. The hint table
// that turns CDP into ECDP is spec-level input (Spec.Hints), not an option:
// hints are profiled per benchmark, options describe hardware.
type CDPOptions struct {
	// CompareBits is the number of high-order address bits compared when
	// guessing whether a scanned value is a pointer (0 = the paper's 8).
	CompareBits int `json:"compare_bits,omitempty"`
	// AttributeRecursion attributes recursive prefetches to the root
	// pointer group (see core.CDPConfig; off reproduces the paper).
	AttributeRecursion bool `json:"attribute_recursion,omitempty"`
}

// MarkovOptions parameterizes the Markov correlation prefetcher baseline.
type MarkovOptions struct {
	// TableEntries sizes the correlation table (0 = the paper's 1 MB table).
	TableEntries int `json:"table_entries,omitempty"`
}

// GHBOptions parameterizes the G/DC global-history-buffer baseline.
type GHBOptions struct {
	// Entries sizes the history buffer and index table (0 = 1024).
	Entries int `json:"entries,omitempty"`
}

// DBPOptions parameterizes the dependence-based prefetcher baseline.
type DBPOptions struct {
	// PPWSize is the potential-producer window size (0 = 128).
	PPWSize int `json:"ppw_size,omitempty"`
	// TableCap caps the correlation table (0 = 256).
	TableCap int `json:"table_cap,omitempty"`
}

// ThrottleOptions parameterizes the paper's coordinated prefetcher
// throttling (Section 4, Table 3).
type ThrottleOptions struct {
	// Thresholds overrides the accuracy/coverage decision thresholds
	// (nil = core.DefaultThresholds).
	Thresholds *core.Thresholds `json:"thresholds,omitempty"`
}

// FDPOptions parameterizes the feedback-directed prefetching baseline
// (Srinath et al.), which throttles each prefetcher on its own metrics.
type FDPOptions struct {
	// Thresholds overrides the FDP decision thresholds
	// (nil = fdp.DefaultThresholds).
	Thresholds *fdp.Thresholds `json:"thresholds,omitempty"`
}

// HWFilterOptions parameterizes the Zhuang-Lee hardware pollution filter
// that gates CDP requests.
type HWFilterOptions struct {
	// Bits sizes the filter table (0 = the paper's 8 KB = 65536 bits).
	Bits int `json:"bits,omitempty"`
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
// typed, versioned options and either a prefetcher constructor or a control
// policy's install hook.
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

	// newOptions allocates the typed options struct at its defaults;
	// validate (optional) checks it after decoding.
	newOptions func() any
	validate   func(opts any) error

	// Exactly one of prefetcher and install is set. prefetcher builds the
	// prefetcher against env; install wires a policy over every prefetcher
	// built for the run (pfs, in spec order), after all of them attached.
	prefetcher func(env *buildEnv, opts any) instance
	install    func(env *buildEnv, opts any, pfs []instance)
}

// components is the catalog of spec kinds: the paper's stream prefetcher,
// (E)CDP and coordinated throttling, plus the rivals it compares against.
// It is sorted by kind, which is the order catalogs and errors list them in.
var components = []component{
	{
		kind: "cdp", version: 1,
		throttleable: true, switchable: true, consumesHints: true,
		newOptions: func() any { return new(CDPOptions) },
		validate: func(opts any) error {
			if o := opts.(*CDPOptions); o.CompareBits < 0 || o.CompareBits > 32 {
				return fmt.Errorf("compare_bits must be in [0, 32], got %d", o.CompareBits)
			}
			return nil
		},
		prefetcher: func(env *buildEnv, opts any) instance {
			o := opts.(*CDPOptions)
			cfg := core.DefaultCDPConfig()
			cfg.BlockSize = env.blockSize
			cfg.Hints = env.hints
			if o.CompareBits != 0 {
				cfg.CompareBits = o.CompareBits
			}
			cfg.AttributeRecursion = o.AttributeRecursion
			cd := core.NewCDP(cfg, env.ms)
			return instance{pf: cd, src: prefetch.SrcCDP, throttleable: cd, switchable: cd}
		},
	},
	{
		kind: "dbp", version: 1,
		throttleable: true,
		newOptions:   func() any { return new(DBPOptions) },
		validate: func(opts any) error {
			o := opts.(*DBPOptions)
			if o.PPWSize < 0 {
				return fmt.Errorf("ppw_size must be >= 0, got %d", o.PPWSize)
			}
			if o.TableCap < 0 {
				return fmt.Errorf("table_cap must be >= 0, got %d", o.TableCap)
			}
			return nil
		},
		prefetcher: func(env *buildEnv, opts any) instance {
			o := opts.(*DBPOptions)
			ppw, tcap := o.PPWSize, o.TableCap
			if ppw == 0 {
				ppw = 128
			}
			if tcap == 0 {
				tcap = 256
			}
			db := dbp.New(ppw, tcap, env.ms.Mem(), env.ms)
			return instance{pf: db, src: prefetch.SrcDBP, throttleable: db}
		},
	},
	{
		kind: "fdp", version: 1,
		claimsThrottle: true,
		newOptions:     func() any { return new(FDPOptions) },
		install: func(env *buildEnv, opts any, pfs []instance) {
			th := fdp.DefaultThresholds()
			if o := opts.(*FDPOptions); o.Thresholds != nil {
				th = *o.Thresholds
			}
			ctl := fdp.NewController(th, env.ms.Feedback())
			n := 0
			for _, inst := range pfs {
				if inst.throttleable != nil {
					ctl.Add(inst.src, inst.throttleable)
					n++
				}
			}
			if n > 0 {
				ctl.Install()
			}
		},
	},
	{
		kind: "ghb", version: 1,
		throttleable: true,
		newOptions:   func() any { return new(GHBOptions) },
		validate: func(opts any) error {
			if o := opts.(*GHBOptions); o.Entries < 0 {
				return fmt.Errorf("entries must be >= 0, got %d", o.Entries)
			}
			return nil
		},
		prefetcher: func(env *buildEnv, opts any) instance {
			n := opts.(*GHBOptions).Entries
			if n == 0 {
				n = 1024
			}
			gh := ghb.New(n, env.ms.BlockShift(), env.ms)
			return instance{pf: gh, src: prefetch.SrcGHB, throttleable: gh}
		},
	},
	{
		// The filter keys on the request source, not on prefetcher
		// instances: it gates every CDP request and learns from every CDP
		// outcome.
		kind: "hwfilter", version: 1,
		newOptions: func() any { return new(HWFilterOptions) },
		validate: func(opts any) error {
			if o := opts.(*HWFilterOptions); o.Bits < 0 {
				return fmt.Errorf("bits must be >= 0 (0 = the default 65536), got %d", o.Bits)
			}
			return nil
		},
		install: func(env *buildEnv, opts any, _ []instance) {
			bits := opts.(*HWFilterOptions).Bits
			if bits == 0 {
				bits = 8 << 10 * 8
			}
			f := hwfilter.New(bits, env.ms.BlockShift())
			ms := env.ms
			ms.FilterPrefetch = func(r prefetch.Request) bool {
				if r.Src != prefetch.SrcCDP {
					return true
				}
				return f.Allow(r)
			}
			prevOutcome := ms.OnPrefetchOutcome
			ms.OnPrefetchOutcome = func(blk uint32, src prefetch.Source, used bool) {
				if prevOutcome != nil {
					prevOutcome(blk, src, used)
				}
				if src == prefetch.SrcCDP {
					f.Outcome(blk, src, used)
				}
			}
		},
	},
	{
		kind: "markov", version: 1,
		throttleable: true,
		newOptions:   func() any { return new(MarkovOptions) },
		validate: func(opts any) error {
			if o := opts.(*MarkovOptions); o.TableEntries < 0 {
				return fmt.Errorf("table_entries must be >= 0, got %d", o.TableEntries)
			}
			return nil
		},
		prefetcher: func(env *buildEnv, opts any) instance {
			n := opts.(*MarkovOptions).TableEntries
			if n == 0 {
				n = markov.TableEntriesFor1MB
			}
			mk := markov.New(n, env.ms.BlockShift(), env.ms)
			return instance{pf: mk, src: prefetch.SrcMarkov, throttleable: mk}
		},
	},
	{
		// Gendler-style best-prefetcher-only selection. It has no options;
		// selecting one prefetcher needs at least two switchable candidates.
		kind: "pab", version: 1,
		minSwitchable: 2,
		newOptions:    func() any { return new(struct{}) },
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
		newOptions: func() any { return new(StreamOptions) },
		validate: func(opts any) error {
			if o := opts.(*StreamOptions); o.Streams < 0 {
				return fmt.Errorf("streams must be >= 0, got %d", o.Streams)
			}
			return nil
		},
		prefetcher: func(env *buildEnv, opts any) instance {
			n := opts.(*StreamOptions).Streams
			if n == 0 {
				n = 32
			}
			sp := stream.New(n, env.ms.BlockShift(), env.ms)
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
	opts := c.newOptions()
	if err := decodeOptions(comp.Kind, comp.Options, opts, c.validate); err != nil {
		return nil, nil, &SpecError{Spec: sp.Name, Component: comp.Kind, Err: ErrBadOptions,
			Reason: err.Error()}
	}
	return c, opts, nil
}

// decodeOptions decodes raw into opts, a pointer to a typed options struct
// holding its defaults, then runs validate (when non-nil) on it. Empty or
// null raw keeps the defaults; unknown fields and trailing data are errors,
// so misspelled option names cannot be silently ignored (and cannot leak
// into cache keys). Errors are prefixed with kind.
func decodeOptions(kind string, raw json.RawMessage, opts any, validate func(any) error) error {
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
