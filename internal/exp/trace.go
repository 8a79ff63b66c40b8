package exp

// This file owns the on-disk form of interval telemetry: the JSONL
// serialization of telemetry.Trace (one interval record or throttle event
// per line) and the reproducibility manifest written next to persisted
// artifacts. The schemas are documented field-by-field in OBSERVABILITY.md;
// bump TraceSchemaVersion on any incompatible change (the golden test in
// trace_test.go pins the key sets).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/telemetry"
)

// TraceSchemaVersion identifies the JSONL trace schema; recorded in every
// manifest.
const TraceSchemaVersion = 1

// intervalLine is the JSONL form of one telemetry.IntervalRecord.
type intervalLine struct {
	Bench        string       `json:"bench"`
	Setup        string       `json:"setup"`
	Interval     int          `json:"interval"`
	Cycle        int64        `json:"cycle"`
	Retired      int64        `json:"retired"`
	DemandMisses int64        `json:"demand_misses"`
	BusTransfers int64        `json:"bus_transfers"`
	BPKI         float64      `json:"bpki"`
	ReqBuf       int          `json:"reqbuf_occupancy"`
	PFBacklog    int64        `json:"pf_backlog_cycles"`
	MSHR         int          `json:"mshr_occupancy"`
	PFQueue      int          `json:"pfq_occupancy"`
	Sources      []sourceLine `json:"sources"`
}

// sourceLine is one attached prefetcher's slice of an interval record.
type sourceLine struct {
	Src      string  `json:"src"`
	Issued   int64   `json:"issued"`
	Used     int64   `json:"used"`
	Accuracy float64 `json:"accuracy"`
	Coverage float64 `json:"coverage"`
	Level    int     `json:"level"`
}

// eventLine is the JSONL form of one telemetry.ThrottleEvent.
type eventLine struct {
	Bench    string  `json:"bench"`
	Setup    string  `json:"setup"`
	Interval int     `json:"interval"`
	Src      string  `json:"src"`
	Case     int     `json:"case"`
	OwnCov   float64 `json:"own_coverage"`
	OwnAcc   float64 `json:"own_accuracy"`
	RivalCov float64 `json:"rival_coverage"`
	Decision string  `json:"decision"`
	OldLevel int     `json:"old_level"`
	NewLevel int     `json:"new_level"`
}

// EncodeIntervals writes t's interval series to w as JSONL, one interval
// record per line, in interval order. Only attached prefetchers
// (t.Sources, in attach order) appear in the per-source array.
func EncodeIntervals(w io.Writer, t *telemetry.Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.Intervals {
		rec := &t.Intervals[i]
		line := intervalLine{
			Bench:        t.Benchmark,
			Setup:        t.Setup,
			Interval:     rec.Interval,
			Cycle:        rec.Cycle,
			Retired:      rec.Retired,
			DemandMisses: rec.DemandMisses,
			BusTransfers: rec.BusTransfers,
			BPKI:         rec.BPKI,
			ReqBuf:       rec.ReqBuf,
			PFBacklog:    rec.PFBacklog,
			MSHR:         rec.MSHR,
			PFQueue:      rec.PFQueue,
			Sources:      make([]sourceLine, 0, len(t.Sources)),
		}
		for _, src := range t.Sources {
			line.Sources = append(line.Sources, sourceLine{
				Src:      src.String(),
				Issued:   rec.Issued[src],
				Used:     rec.Used[src],
				Accuracy: rec.Accuracy[src],
				Coverage: rec.Coverage[src],
				Level:    int(rec.Level[src]),
			})
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeEvents writes t's throttle-decision log to w as JSONL, one event
// per line, in decision order.
func EncodeEvents(w io.Writer, t *telemetry.Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events {
		line := eventLine{
			Bench:    t.Benchmark,
			Setup:    t.Setup,
			Interval: ev.Interval,
			Src:      ev.Src.String(),
			Case:     ev.Case,
			OwnCov:   ev.OwnCov,
			OwnAcc:   ev.OwnAcc,
			RivalCov: ev.RivalCov,
			Decision: ev.Decision,
			OldLevel: int(ev.OldLevel),
			NewLevel: int(ev.NewLevel),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sanitizeName maps a benchmark/setup label to a safe filename fragment.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-', r == '+':
			return r
		default:
			return '-'
		}
	}, s)
}

// TraceBase returns the base filename (no extension) a trace persists under:
// <bench>__<setup>, sanitized.
func TraceBase(t *telemetry.Trace) string {
	return sanitizeName(t.Benchmark) + "__" + sanitizeName(t.Setup)
}

// WriteTrace persists t under dir as <base>.intervals.jsonl and
// <base>.events.jsonl with base = TraceBase(t), creating dir if needed.
func WriteTrace(dir string, t *telemetry.Trace) error {
	return WriteTraceAs(dir, TraceBase(t), t)
}

// WriteTraceAs is WriteTrace with an explicit base filename (multi-core
// runs disambiguate per-core traces this way).
func WriteTraceAs(dir, base string, t *telemetry.Trace) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, encode func(io.Writer, *telemetry.Trace) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := encode(f, t); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".intervals.jsonl", EncodeIntervals); err != nil {
		return err
	}
	return write(base+".events.jsonl", EncodeEvents)
}

// Manifest records how a directory of persisted artifacts (reports or
// traces) was produced, for reproducibility: rerunning the recorded command
// at the recorded source revision regenerates them byte-for-byte (traces)
// or value-for-value (reports).
type Manifest struct {
	// Experiment is the experiment id (or "ldssim/<config>" for single
	// runs).
	Experiment string `json:"experiment"`
	// Benchmarks lists the benchmarks involved, when known.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scale and Seed are the workload input parameters.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Parallel is the simulation concurrency bound (0 when not applicable).
	Parallel int `json:"parallel,omitempty"`
	// GoVersion is the toolchain that produced the artifacts.
	GoVersion string `json:"go_version"`
	// GitDescribe identifies the source revision (empty outside a git
	// checkout).
	GitDescribe string `json:"git_describe,omitempty"`
	// Command is the full command line that produced the artifacts.
	Command []string `json:"command,omitempty"`
	// SchemaVersion is the JSONL trace schema version in effect.
	SchemaVersion int `json:"schema_version"`
	// GeneratedAt is the UTC RFC 3339 creation time.
	GeneratedAt string `json:"generated_at"`
	// TraceFile records the capture a trace-replay run replayed: the paired
	// digest is the replay's full provenance (the benchmark label
	// "trace:<digest12>" embeds its prefix, so cache keys and reports are
	// content-addressed to the capture).
	TraceFile *TraceFileRef `json:"trace_file,omitempty"`
	// Cache summarizes result-cache effectiveness when a cache was in use.
	Cache *CacheSummary `json:"cache,omitempty"`
	// Jobs records per-job provenance — whether each simulation was served
	// from the cache ("hit"), executed ("computed"/"uncached"), coalesced
	// with an identical in-flight job, or failed.
	Jobs []jobs.Record `json:"jobs,omitempty"`
}

// TraceFileRef is the manifest's record of a replayed trace capture
// (TRACEFORMAT.md).
type TraceFileRef struct {
	// Path is the capture file as given on the command line.
	Path string `json:"path"`
	// Generator is the workload that produced the capture, from its header.
	Generator string `json:"generator,omitempty"`
	// Digest is the hex SHA-256 of the capture's canonical encoding.
	Digest string `json:"digest"`
	// FormatVersion is the capture's trace file format version.
	FormatVersion uint32 `json:"format_version"`
}

// CacheSummary is the manifest's record of cache effectiveness.
type CacheSummary struct {
	Dir      string `json:"dir,omitempty"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Computed int64  `json:"computed"`
	Uncached int64  `json:"uncached"`
	Failed   int64  `json:"failed"`
}

// attachJobs records the scheduler's cache counters and per-job provenance
// in the manifest.
func (m *Manifest) attachJobs(cacheDir string, s *jobs.Scheduler) {
	snap := s.Metrics().Snapshot()
	m.Cache = &CacheSummary{
		Dir:      cacheDir,
		Hits:     snap.CacheHits,
		Misses:   snap.CacheMisses,
		Computed: snap.Computed,
		Uncached: snap.Uncached,
		Failed:   snap.Failed,
	}
	m.Jobs = s.Records()
}

// WriteManifest is how a command records its run: it writes m into c's
// TraceDir and into outDir (each skipped when empty), with c's cache summary
// and per-job provenance attached when a cache is in use.
func (c *Context) WriteManifest(m Manifest, outDir string) error {
	if c.CacheDir != "" {
		m.attachJobs(c.CacheDir, c.Jobs())
	}
	for _, dir := range []string{c.TraceDir, outDir} {
		if dir == "" {
			continue
		}
		if err := m.write(dir); err != nil {
			return err
		}
	}
	return nil
}

// NewManifest fills a manifest with the environment-derived fields
// (toolchain version, git revision, command line, timestamp).
func NewManifest(experiment string, scale float64, seed int64, parallel int) Manifest {
	return Manifest{
		Experiment:    experiment,
		Scale:         scale,
		Seed:          seed,
		Parallel:      parallel,
		GoVersion:     runtime.Version(),
		GitDescribe:   gitDescribe(),
		Command:       os.Args,
		SchemaVersion: TraceSchemaVersion,
		//ldslint:walltime provenance timestamp only; never enters results, reports, or cache keys
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// write persists the manifest as <dir>/manifest.json, creating dir if
// needed.
func (m Manifest) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(b, '\n'), 0o644)
}

// gitDescribe returns `git describe --always --dirty --tags` for the
// working tree, or "" when git or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// coreTraceBase names one core's trace within a multi-core mix.
func coreTraceBase(mix []string, coreIdx int, t *telemetry.Trace) string {
	return fmt.Sprintf("%s__core%d-%s__%s",
		sanitizeName(mixLabel(mix)), coreIdx,
		sanitizeName(t.Benchmark), sanitizeName(t.Setup))
}
