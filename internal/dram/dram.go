// Package dram models the off-chip memory system of the paper's baseline
// (Table 5): a banked DRAM behind an on-chip memory controller with a bounded
// memory request buffer and an 8-byte-wide core-to-memory bus at a 5:1
// frequency ratio, with a 450-cycle minimum memory latency.
//
// The model is timestamp-based: every request carries the cycle it arrives at
// the controller, and the controller resolves queueing by advancing the
// request past per-bank and bus busy-until times. This captures the three
// contention effects the paper's throttling mechanism manages — request
// buffer occupancy, DRAM bank conflicts, and bus bandwidth — without a
// cycle-by-cycle event loop.
//
// Latency decomposition (core cycles): 50 controller + 110 bank occupancy
// (≈tRC) + 40 bus transfer (64 B over an 8 B bus at 5:1) + 250 uncontended
// fill/core latency = 450 minimum, matching the paper's parameter. Only the
// bank and bus terms are occupancies; capacity is bus-limited (8 banks / 110
// cycles exceeds 1 block / 40 cycles).
package dram

import (
	"fmt"

	"ldsprefetch/internal/heap64"
)

// Config parameterizes the DRAM model.
type Config struct {
	// Banks is the number of DRAM banks (paper: 8).
	Banks int
	// CtrlCycles is the fixed controller/on-chip traversal latency.
	CtrlCycles int64
	// BankCycles is the bank occupancy per access.
	BankCycles int64
	// BusCycles is the bus occupancy per 64-byte transfer.
	BusCycles int64
	// FillCycles is the latency from bus completion to data use.
	FillCycles int64
	// RequestBuffer bounds outstanding requests at the controller
	// (paper: 32 × core count). Zero means unbounded.
	RequestBuffer int
	// BlockShift is log2 of the cache block size, used for bank interleave.
	BlockShift uint
}

// DefaultConfig returns the paper's single-core memory system parameters for
// the given core count.
func DefaultConfig(cores int) Config {
	if cores < 1 {
		cores = 1
	}
	return Config{
		Banks:         8,
		CtrlCycles:    50,
		BankCycles:    110,
		BusCycles:     40,
		FillCycles:    250,
		RequestBuffer: 32 * cores,
		BlockShift:    6,
	}
}

// MaxBanks bounds Config.Banks, so that a configuration from an untrusted
// source (a spec's dram_cfg) cannot make NewController allocate without
// limit: the controller keeps two busy-until times per bank.
const MaxBanks = 1 << 10

// Validate checks that Banks is at most MaxBanks (zero or less selects 8).
func (c Config) Validate() error {
	if c.Banks > MaxBanks {
		return fmt.Errorf("dram_cfg: Banks must be at most %d, got %d", MaxBanks, c.Banks)
	}
	return nil
}

// MinLatency returns the contention-free memory latency.
func (c Config) MinLatency() int64 {
	return c.CtrlCycles + c.BankCycles + c.BusCycles + c.FillCycles
}

// Controller is the shared memory controller. In multi-core configurations
// all cores' L2 caches send requests to one Controller, so bank and bus
// contention between cores is modelled.
//
// The bus is scheduled with demand priority: demand transfers queue only
// behind other demand transfers (plus a bounded non-preemption penalty per
// overlapping prefetch transfer), while prefetch and writeback transfers
// queue behind everything. DRAM banks are shared by all classes — a bank
// busy with a prefetch delays a demand to the same bank, one of the
// interference channels the paper's throttling manages.
type Controller struct {
	cfg         Config
	bankFree    []int64     // full FIFO view per bank: all accesses
	bankFreeDem []int64     // demand-priority view per bank
	busFree     int64       // full FIFO view: all transfers
	busFreeDem  int64       // demand-priority view of the bus
	pending     heap64.Heap // completion times of outstanding requests

	// Request logging for the epoch-barrier engine (see epoch.go): when
	// logging, every Access/Writeback is recorded with its original
	// arguments for a later replay onto the master controller.
	logging bool
	log     []Request

	// Echoed cross-traffic (see epoch.go): other cores' previous-epoch
	// request logs, drained into the busy-until state lazily, in arrival
	// order interleaved with this controller's real requests, echoLook
	// cycles ahead of them.
	echo      [][]Request
	echoPos   []int
	echoShift int64
	echoLook  int64

	// mergePos is ReplayMergedFrom's per-source cursor, kept to reuse its
	// storage across barriers.
	mergePos []int

	// Transfers counts data-block bus transfers (fills and writebacks);
	// this is the BPKI numerator.
	Transfers int64
	// DemandTransfers counts transfers triggered by demand requests.
	DemandTransfers int64
	// Stalls counts requests delayed by a full request buffer.
	Stalls int64
}

// NewController builds a controller for cfg.
func NewController(cfg Config) *Controller {
	if cfg.Banks <= 0 {
		cfg.Banks = 8
	}
	return &Controller{
		cfg:         cfg,
		bankFree:    make([]int64, cfg.Banks),
		bankFreeDem: make([]int64, cfg.Banks),
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) bank(addr uint32) int {
	return int((addr >> c.cfg.BlockShift) % uint32(c.cfg.Banks))
}

// admit applies the request-buffer bound: if the buffer is full at time t,
// the request waits for the earliest outstanding completion.
func (c *Controller) admit(t int64) int64 {
	// Retire completed requests.
	c.pending.PopLE(t)
	if c.cfg.RequestBuffer > 0 && len(c.pending) >= c.cfg.RequestBuffer {
		c.Stalls++
		earliest := c.pending.Pop()
		if earliest > t {
			t = earliest
		}
	}
	return t
}

// Access issues a block read at cycle t and returns the cycle the fill
// completes at the requester. Demand requests get bus priority; prefetches
// ride the full FIFO and interfere with demands only through bank occupancy,
// the request buffer, and a bounded non-preemption penalty.
func (c *Controller) Access(addr uint32, t int64, demand bool) int64 {
	if c.logging {
		c.log = append(c.log, Request{Addr: addr, At: t, Demand: demand})
	}
	c.drainEcho(t)
	return c.access(addr, t, demand, true)
}

// access is Access without logging. real=false is echo mode: the request
// ratchets the bank and bus busy-until horizons (the collision channels) but
// neither occupies the request buffer — the master's copied pending heap
// already carries the other cores' real in-flight tail, and double-counting
// it would wedge Congested — nor touches the transfer/stall counters (echoed
// cross-traffic is counted once, on the master, where the real request
// replays).
func (c *Controller) access(addr uint32, t int64, demand, real bool) int64 {
	if real {
		t = c.admit(t)
	}
	start := t + c.cfg.CtrlCycles
	b := c.bank(addr)

	var bankDone, busDone int64
	if demand {
		// Demands queue only behind other demands at the bank and the bus,
		// paying at most half an in-service low-priority access/transfer
		// (non-preemption) when the full FIFO view is busier.
		bankStart := max(start, c.bankFreeDem[b])
		bankStart += nonPreempt(c.bankFree[b], bankStart, c.cfg.BankCycles)
		bankDone = bankStart + c.cfg.BankCycles
		c.bankFreeDem[b] = bankDone
		c.bankFree[b] = max(c.bankFree[b], bankDone)

		busStart := max(bankDone, c.busFreeDem)
		busStart += nonPreempt(c.busFree, busStart, c.cfg.BusCycles)
		busDone = busStart + c.cfg.BusCycles
		c.busFreeDem = busDone
		c.busFree = max(c.busFree, busDone)
	} else {
		bankStart := max(start, c.bankFree[b])
		bankDone = bankStart + c.cfg.BankCycles
		c.bankFree[b] = bankDone
		busStart := max(bankDone, c.busFree)
		busDone = busStart + c.cfg.BusCycles
		c.busFree = busDone
	}

	done := busDone + c.cfg.FillCycles
	if real {
		c.pending.Push(done)
		c.Transfers++
		if demand {
			c.DemandTransfers++
		}
	}
	return done
}

// nonPreempt returns the bounded delay a priority request pays when the
// resource's full FIFO horizon exceeds its priority-view start: half of one
// in-service low-priority occupancy, at most.
func nonPreempt(fullFree, start, occupancy int64) int64 {
	if fullFree <= start {
		return 0
	}
	block := fullFree - start
	if block > occupancy {
		block = occupancy
	}
	return block / 2
}

// Writeback models a dirty-block eviction: it occupies the bus (low
// priority) and a bank, and counts as a transfer, but nothing waits for it.
func (c *Controller) Writeback(addr uint32, t int64) {
	if c.logging {
		c.log = append(c.log, Request{Addr: addr, At: t, Writeback: true})
	}
	c.drainEcho(t)
	c.writeback(addr, t, true)
}

// writeback is Writeback without logging; real=false is echo mode and
// suppresses the transfer counter (see access).
func (c *Controller) writeback(addr uint32, t int64, real bool) {
	start := t + c.cfg.CtrlCycles
	busStart := max(start, c.busFree)
	c.busFree = busStart + c.cfg.BusCycles
	b := c.bank(addr)
	c.bankFree[b] = max(c.bankFree[b], busStart+c.cfg.BusCycles) + c.cfg.BankCycles
	if real {
		c.Transfers++
	}
}

// OutstandingAt returns the number of requests still in flight at cycle t.
// Unlike Congested it never mutates the pending heap, so telemetry can
// sample request-buffer occupancy without perturbing admission timing.
func (c *Controller) OutstandingAt(t int64) int {
	return c.pending.CountGreater(t)
}

// Congested reports whether at least `limit` requests are outstanding at
// cycle t. Prefetchers drop requests under congestion (demand requests wait
// instead).
func (c *Controller) Congested(t int64, limit int) bool {
	c.drainEcho(t)
	c.pending.PopLE(t)
	return limit > 0 && len(c.pending) >= limit
}

// PrefetchBacklog returns the cycles of low-priority (prefetch/writeback)
// bus work queued beyond both cycle t and all scheduled demand work. A
// bounded memory-side queue cannot hold more than a few transfers of such
// work; prefetchers drop requests when this backlog is deep.
func (c *Controller) PrefetchBacklog(t int64) int64 {
	c.drainEcho(t)
	ref := c.busFreeDem
	if t > ref {
		ref = t
	}
	if c.busFree <= ref {
		return 0
	}
	return c.busFree - ref
}
