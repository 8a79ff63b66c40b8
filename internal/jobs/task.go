package jobs

import (
	"encoding/json"
	"fmt"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// TaskSpec is the one description of a simulation result job: everything
// any node needs to recompute the result, in the same JSON vocabulary the
// sweep API already speaks. SingleSpec, MultiSpec and ExecTask all run
// their jobs as TaskSpecs, so a job dispatched to a remote worker is the
// same value the coordinator would have run itself. Profiles and traced
// runs stay on the node that created them (profiles are cached in that
// node's store, when it has one).
type TaskSpec struct {
	// Kind is the job kind: "single", "shared", or "alone".
	Kind string `json:"kind"`
	// Benches is the benchmark (set, for shared runs).
	Benches []string `json:"benches"`
	// Scale and Seed are the workload parameters.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Cores is the memory-system width (alone runs; ignored for single and
	// implied by len(Benches) for shared).
	Cores int `json:"cores"`
	// Spec is the declarative run configuration, hint tables included.
	Spec sim.Spec `json:"spec"`
	// Key, when non-empty, is the cache-key hash the describing node
	// derived. The executing node re-derives the key and refuses the task
	// on a mismatch — the cheap guard against coordinator/worker version
	// skew, since every semantic difference (schema, factory versions,
	// spec encoding) lands in the hash.
	Key string `json:"key,omitempty"`
}

// Runner executes one described job somewhere other than the local worker
// pool. A Scheduler with a Runner configured hands every cacheable job to
// it instead of simulating in-process; the distributed coordinator
// implements Runner by leasing tasks to pull-based workers
// (DISTRIBUTED.md). RunTask returns the result's canonical JSON encoding —
// json.Marshal of the sim.Result or sim.MultiResult — or the job's error.
// Implementations must be safe for concurrent use.
type Runner interface {
	RunTask(t TaskSpec) (json.RawMessage, error)
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

// ExecTask executes one transportable task under this scheduler — cache
// lookup, in-flight dedup, panic containment, timeout, retry, and verify
// mode all apply exactly as for locally submitted jobs, because both take
// the same path (runTask) — and returns the result's canonical JSON
// encoding. It is the worker half of the distributed protocol: a worker's
// scheduler executes what a coordinator's Runner dispatched.
func (s *Scheduler) ExecTask(t TaskSpec) (json.RawMessage, error) {
	v, err := s.runTask(t)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding task result: %w", err)
	}
	return b, nil
}

// runTask is the one path of every result job, local or received. It
// validates t's spec and shape and derives the key, closure and result type
// from plan; a task whose embedded Key does not match the locally derived
// key is refused without running, since the two nodes are running
// different simulator versions and would silently disagree otherwise. A
// traced task runs locally and uncached; any other task is cacheable and,
// when a Runner is configured, handed to it with the key embedded.
func (s *Scheduler) runTask(t TaskSpec) (any, error) {
	if err := t.Spec.Validate(); err != nil {
		return nil, s.rejectSpec(t.Kind, t.Benches, t.Spec.Name, err)
	}
	key, run, newOut, err := t.plan()
	if err != nil {
		return nil, s.rejectSpec(t.Kind, t.Benches, t.Spec.Name, err)
	}
	if t.Key != "" && t.Key != key.Hash {
		return nil, s.rejectSpec(t.Kind, t.Benches, t.Spec.Name,
			fmt.Errorf("jobs: task key mismatch: dispatcher derived %s, this node derives %s (schema %d) — coordinator and worker are running different simulator versions",
				t.Key, key.Hash, SchemaVersion))
	}
	d := jobDesc{kind: t.Kind, benches: t.Benches, setupName: t.Spec.Name}
	if !t.Spec.Trace {
		d.key, d.cacheable = key, true
		if s.cfg.Runner != nil {
			t.Key = key.Hash
			d.task = &t
		}
	}
	return s.do(d, run, newOut)
}
