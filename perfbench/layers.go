package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ldsprefetch/internal/cache"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// driverAccesses bounds the memory operations the layer drivers replay per
// workload, split evenly over its benchmarks, so that the drivers stay a
// small part of a traced run.
const driverAccesses = 1_200_000

// cacheBatch is how many accesses one cache-driver batch looks up before it
// inserts that batch's misses; callBatch is the batch of the other drivers.
const (
	cacheBatch = 256
	callBatch  = 4096
)

// memOp is one memory operation of a benchmark's address stream.
type memOp struct {
	at     int64 // op index in the trace, used as the issue cycle
	addr   uint32
	pc     uint32
	isLoad bool
	lds    bool
}

// addressStream returns up to limit memory operations of bench at input p.
func addressStream(bench string, p workload.Params, limit int) ([]memOp, *trace.Trace, error) {
	tr, err := workload.BuildShared(bench, p)
	if err != nil {
		return nil, nil, err
	}
	var ops []memOp
	for i, op := range tr.Ops {
		if len(ops) == limit {
			break
		}
		if op.Kind == trace.Load || op.Kind == trace.Store {
			ops = append(ops, memOp{at: int64(i), addr: op.Addr, pc: op.PC,
				isLoad: op.Kind == trace.Load, lds: op.LDS})
		}
	}
	return ops, tr, nil
}

// batchTimer accumulates the time and the calls of timed batches.
type batchTimer struct {
	ns    int64
	calls int64
}

func (b *batchTimer) add(d time.Duration, calls int) {
	b.ns += d.Nanoseconds()
	b.calls += int64(calls)
}

func (b batchTimer) perCall() float64 {
	if b.calls == 0 {
		return 0
	}
	return float64(b.ns) / float64(b.calls)
}

// layerDrivers replays the workload's own address streams straight into the
// public calls of cache, memsys and dram, and its own results into a job
// store, and writes the per-call times into m.
func (r *run) layerDrivers(results []sim.Result, m map[string]metric) error {
	benches, cores := r.b.streams()
	limit := driverAccesses / len(benches)
	cfg := memsys.DefaultConfig()
	var lookups, inserts, msAccess batchTimer
	type miss struct {
		at   int64
		addr uint32
	}
	var misses []miss
	for _, b := range benches {
		ops, tr, err := addressStream(b, r.in, limit)
		if err != nil {
			return err
		}

		// cache: the L1, then the L2 for the L1's misses; each batch's
		// lookups are timed apart from the inserts of its misses.
		end := r.rec.begin("driver.cache", b)
		l1 := cache.New("L1D", cfg.L1Size, cfg.L1Ways, cfg.BlockSize)
		l2 := cache.New("L2", cfg.L2Size, cfg.L2Ways, cfg.BlockSize)
		var l1Miss, l2Miss []memOp
		for lo := 0; lo < len(ops); lo += cacheBatch {
			batch := ops[lo:min(lo+cacheBatch, len(ops))]
			l1Miss, l2Miss = l1Miss[:0], l2Miss[:0]
			t0 := time.Now()
			for _, op := range batch {
				if l1.Lookup(op.addr, true) == nil {
					l1Miss = append(l1Miss, op)
					if l2.Lookup(op.addr, true) == nil {
						l2Miss = append(l2Miss, op)
					}
				}
			}
			t1 := time.Now()
			for _, op := range l2Miss {
				l2.Insert(op.addr)
			}
			for _, op := range l1Miss {
				l1.Insert(op.addr)
			}
			t2 := time.Now()
			lookups.add(t1.Sub(t0), len(batch)+len(l1Miss))
			inserts.add(t2.Sub(t1), len(l1Miss)+len(l2Miss))
			for _, op := range l2Miss {
				misses = append(misses, miss{op.at, op.addr})
			}
		}
		end()

		// memsys: the demand stream through a private hierarchy with no
		// prefetcher attached, over the benchmark's own memory image.
		end = r.rec.begin("driver.memsys", b)
		ms := memsys.New(cfg, tr.Mem, dram.NewController(dram.DefaultConfig(1)))
		for lo := 0; lo < len(ops); lo += callBatch {
			batch := ops[lo:min(lo+callBatch, len(ops))]
			t0 := time.Now()
			for _, op := range batch {
				ms.Access(op.addr, op.pc, op.isLoad, op.lds, op.at)
			}
			msAccess.add(time.Since(t0), len(batch))
		}
		end()
	}

	// dram: the L2 misses of every benchmark in issue order, into one
	// controller sized for the workload's cores.
	end := r.rec.begin("driver.dram", "")
	sort.SliceStable(misses, func(i, j int) bool { return misses[i].at < misses[j].at })
	ctrl := dram.NewController(dram.DefaultConfig(cores))
	var dramAccess batchTimer
	for lo := 0; lo < len(misses); lo += callBatch {
		batch := misses[lo:min(lo+callBatch, len(misses))]
		t0 := time.Now()
		for _, mi := range batch {
			ctrl.Access(mi.addr, mi.at, true)
		}
		dramAccess.add(time.Since(t0), len(batch))
	}
	end()

	get, put, err := r.storeDriver(results)
	if err != nil {
		return err
	}
	m["cache.lookup_ns"] = metric{lookups.perCall(), "ns"}
	m["cache.insert_ns"] = metric{inserts.perCall(), "ns"}
	m["memsys.access_ns"] = metric{msAccess.perCall(), "ns"}
	m["dram.access_ns"] = metric{dramAccess.perCall(), "ns"}
	m["jobs.store_get_us"] = metric{get, "us"}
	m["jobs.store_put_us"] = metric{put, "us"}
	return nil
}

// storeRounds is how many times the store driver writes and reads back each
// result.
const storeRounds = 8

// storeDriver puts the workload's own results into a fresh on-disk job store
// and reads each back, returning the median microseconds of one Get and of
// one Put. A read that does not return what was written is an error.
func (r *run) storeDriver(results []sim.Result) (get, put float64, err error) {
	defer r.rec.begin("driver.jobs", "")()
	st, err := jobs.Open(filepath.Join(r.work, "driver-store"))
	if err != nil {
		return 0, 0, err
	}
	keys := make([]jobs.Key, len(results))
	wants := make([]string, len(results))
	for i, res := range results {
		keys[i], err = jobs.SingleSpecKey(res.Benchmark, r.in, sim.NewSpec(fmt.Sprintf("perfbench-%d", i)))
		if err != nil {
			return 0, 0, err
		}
		if wants[i], err = digest(res); err != nil {
			return 0, 0, err
		}
	}
	var gets, puts []float64
	for round := 0; round < storeRounds; round++ {
		for i := range results {
			t0 := time.Now()
			if err := st.Put(keys[i], "single", &results[i]); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			var out sim.Result
			ok, err := st.Get(keys[i], "single", &out)
			t2 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			got, err := digest(out)
			if err != nil {
				return 0, 0, err
			}
			if !ok || got != wants[i] {
				return 0, 0, fmt.Errorf("job store returned a different result for %s", results[i].Benchmark)
			}
			puts = append(puts, float64(t1.Sub(t0).Nanoseconds())/1e3)
			gets = append(gets, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	}
	return median(gets), median(puts), nil
}
