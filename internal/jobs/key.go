// Package jobs turns simulations into cacheable, observable jobs. It
// provides a content-addressed result store keyed by a canonical hash of
// the full simulation input (Spec, workload parameters, benchmark set,
// schema version), a bounded worker-pool scheduler with per-job panic
// containment and timeout, in-flight deduplication of identical
// jobs, a journal that makes interrupted sweeps resumable, and counters
// suitable for a /metrics endpoint. internal/exp, both CLIs, and the job
// service route every simulation through a Scheduler.
//
// Every result job (a single-core run, a mix's shared run, one alone run) is
// described once, as a TaskSpec, and runs on one in-process path (runTask).
// Profiles are cached jobs too. The Store is a directory of content-addressed
// objects plus an advisory completion journal. ORCHESTRATION.md documents
// the scheduler, the store, and the job service built on them.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// SchemaVersion identifies the semantics of the simulator and of the stored
// result encoding. It participates in every cache key, so bumping it
// invalidates the whole store: do so whenever a change makes previously
// computed results stale (simulator behaviour, workload generation, metric
// definitions, the Result/MultiResult JSON shape, or the canonical key
// payload itself).
//
// Version history:
//
//	1 — canonical payload mirrored the since-removed Setup flag-bag
//	    field by field (canonSetup).
//	2 — canonical payload embeds sim.Spec.Canonical(): the declarative
//	    component list with per-factory versions. Simulated results are
//	    unchanged; only the key derivation moved, so version 1 objects are
//	    unreachable (stale but harmless — prune old store directories).
//	3 — simulator behaviour changed: multi-core mixes run under the
//	    epoch-barrier engine (internal/sim/engine — cross-core contention
//	    is resolved through barrier-merged replay plus a bounded-lookahead
//	    echo of the other cores' previous epoch), and two memsys accounting
//	    bugs were fixed (pollution eviction-ring refcounting; fair-share
//	    token bucket uses the real core count). Cached v2 results are
//	    stale.
const SchemaVersion = 3

// Key identifies one job's full input. Equal inputs hash equal; any change
// to the spec, the workload parameters, the benchmark set, the machine
// width, a component factory version, or SchemaVersion produces a different
// key.
type Key struct {
	// Hash is the hex SHA-256 of the canonical payload.
	Hash string
	// canonical is the JSON payload that was hashed, embedded in stored
	// objects for debuggability.
	canonical []byte
}

// keyPayload is the canonical, versioned form of a job input. Field order
// is fixed by the struct; Spec is the deterministic encoding produced by
// sim.Spec.Canonical (components with factory versions, sorted hint
// triples, pointer configs expanded to value-or-null). Spec.Trace is
// deliberately absent from that encoding: tracing is observation-only and
// traced runs bypass the cache anyway.
type keyPayload struct {
	Schema  int             `json:"schema"`
	Kind    string          `json:"kind"` // "single", "shared", or "alone"
	Benches []string        `json:"benches"`
	Scale   float64         `json:"scale"`
	Seed    int64           `json:"seed"`
	Cores   int             `json:"cores"` // memory-system width (alone/shared runs)
	Spec    json.RawMessage `json:"spec"`
}

// newKey builds the canonical key for one job. It fails only when the spec
// does not canonicalize (unknown component kind or undecodable options) —
// exactly the specs Validate rejects.
func newKey(kind string, benches []string, cores int, p workload.Params, sp sim.Spec) (Key, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return Key{}, err
	}
	return keyFromPayload(keyPayload{
		Schema:  SchemaVersion,
		Kind:    kind,
		Benches: benches,
		Scale:   p.Scale,
		Seed:    p.Seed,
		Cores:   cores,
		Spec:    canon,
	}), nil
}

func keyFromPayload(pl keyPayload) Key {
	b, err := json.Marshal(pl)
	if err != nil {
		panic(fmt.Sprintf("jobs: canonical encode: %v", err))
	}
	h := sha256.Sum256(b)
	return Key{Hash: hex.EncodeToString(h[:]), canonical: b}
}

// SingleSpecKey is the cache key of a RunSingleSpec job.
func SingleSpecKey(bench string, p workload.Params, sp sim.Spec) (Key, error) {
	return newKey("single", []string{bench}, 1, p, sp)
}

// SharedSpecKey is the cache key of the shared portion of a multi-core job.
func SharedSpecKey(benches []string, p workload.Params, sp sim.Spec) (Key, error) {
	return newKey("shared", benches, len(benches), p, sp)
}

// AloneSpecKey is the cache key of one alone-run normalization job on a
// cores-wide machine.
func AloneSpecKey(bench string, p workload.Params, sp sim.Spec, cores int) (Key, error) {
	return newKey("alone", []string{bench}, cores, p, sp)
}
