package jobs

import (
	"fmt"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// TaskSpec is the one in-process description of a simulation result job:
// everything needed to compute the result and derive its cache key.
// SingleSpec and MultiSpec run every job they submit as a TaskSpec through
// runTask, the only place the single/shared/alone shapes are checked and
// resolved. A traced task (Spec.Trace) runs uncached; profiles are jobs of
// their own (Profile).
type TaskSpec struct {
	// Kind is the job kind: "single", "shared", or "alone".
	Kind string
	// Benches is the benchmark (set, for shared runs).
	Benches []string
	// Scale and Seed are the workload parameters.
	Scale float64
	Seed  int64
	// Cores is the memory-system width (alone runs; ignored for single and
	// implied by len(Benches) for shared).
	Cores int
	// Spec is the declarative run configuration, hint tables included.
	Spec sim.Spec
}

// plan resolves a TaskSpec into its cache key, its execution closure, and
// the typed destination constructor, validating the kind shape.
func (t TaskSpec) plan() (Key, func() (any, error), func() any, error) {
	p := workload.Params{Scale: t.Scale, Seed: t.Seed}
	switch t.Kind {
	case "single":
		if len(t.Benches) != 1 {
			return Key{}, nil, nil, fmt.Errorf("jobs: single task needs exactly one benchmark, got %v", t.Benches)
		}
		key, err := SingleSpecKey(t.Benches[0], p, t.Spec)
		run, newOut := typed(func() (sim.Result, error) { return sim.RunSingleSpec(t.Benches[0], p, t.Spec) })
		return key, run, newOut, err
	case "alone":
		if len(t.Benches) != 1 {
			return Key{}, nil, nil, fmt.Errorf("jobs: alone task needs exactly one benchmark, got %v", t.Benches)
		}
		if t.Cores < 1 {
			return Key{}, nil, nil, fmt.Errorf("jobs: alone task needs cores >= 1, got %d", t.Cores)
		}
		key, err := AloneSpecKey(t.Benches[0], p, t.Spec, t.Cores)
		run, newOut := typed(func() (sim.Result, error) { return sim.RunAloneSpec(t.Benches[0], p, t.Spec, t.Cores) })
		return key, run, newOut, err
	case "shared":
		if len(t.Benches) == 0 {
			return Key{}, nil, nil, fmt.Errorf("jobs: shared task needs benchmarks")
		}
		key, err := SharedSpecKey(t.Benches, p, t.Spec)
		run, newOut := typed(func() (sim.MultiResult, error) { return sim.RunSharedSpec(t.Benches, p, t.Spec) })
		return key, run, newOut, err
	default:
		return Key{}, nil, nil, fmt.Errorf("jobs: unknown task kind %q (want single, shared, or alone)", t.Kind)
	}
}

// typed adapts a simulation returning T to the job path: the closure do runs,
// yielding a *T, and the constructor of the *T a cached result decodes into.
func typed[T any](run func() (T, error)) (func() (any, error), func() any) {
	return func() (any, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return &r, nil
	}, func() any { return new(T) }
}

// runTask is the one path of every result job. It validates t's spec and
// shape and derives the key, closure and result type from plan. A traced
// task runs uncached; any other task is cacheable.
func (s *Scheduler) runTask(t TaskSpec) (any, error) {
	if err := t.Spec.Validate(); err != nil {
		return nil, s.rejectSpec(t.Kind, t.Benches, t.Spec.Name, err)
	}
	key, run, newOut, err := t.plan()
	if err != nil {
		return nil, s.rejectSpec(t.Kind, t.Benches, t.Spec.Name, err)
	}
	d := jobDesc{kind: t.Kind, benches: t.Benches, setupName: t.Spec.Name}
	if !t.Spec.Trace {
		d.key, d.cacheable = key, true
	}
	return s.do(d, run, newOut)
}
