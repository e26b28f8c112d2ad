// Package sched is the work-stealing chunk scheduler of the MnnFast
// runtime: it turns one query's (or one micro-batch's) pass over the
// memory rows into chunk-granularity work items and executes them on
// the persistent tensor.Pool workers with dynamic load balancing.
//
// The paper's column-based algorithm with lazy softmax (§3.1) makes
// memory chunks independent until a single O(ed) merge, so inference
// should scale with cores. Static partitioning squanders that when
// zero-skipping (§3.2) is on: the few relevant sentences cluster, so
// one worker's band is dense compute while another's is all skips.
// The scheduler seeds each worker with a contiguous run of chunks and
// lets workers that run dry steal from the tail of a neighbor's deque
// — idle cores drain the imbalance instead of waiting at the merge.
//
// Determinism contract: Run invokes fn exactly once per item, and the
// caller indexes results by item, never by worker. Execution order and
// the chunk→worker assignment are timing-dependent; the set of items
// and their payloads are not. Engines that merge per-item results in
// fixed item order therefore produce bit-identical outputs at every
// worker count, stealing or not (see memnn's batched hop loop, which
// calls RunEvents from infer).
//
// The steady state allocates nothing: run descriptors and deques come
// from a process-wide sync.Pool with grow-only buffers, work travels
// over the pool's persistent workers, and the per-slot counters are
// plain atomic adds.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Scheduler executes chunked work on a tensor.Pool with work stealing.
// A nil *Scheduler is valid and runs everything serially on the
// calling goroutine, so callers can thread one pointer through without
// nil checks. A Scheduler is safe for concurrent Run calls: each run
// draws its own deques from a pool; only the per-worker counters are
// shared, and those are atomic.
type Scheduler struct {
	pool  *tensor.Pool
	slots []slot
	runs  atomic.Int64 // parallel runs dispatched
	ser   atomic.Int64 // serial runs (width 1 or single item)
}

// slot is the per-worker accounting of one scheduler. The fields are
// written by whichever goroutine currently acts as that worker index;
// concurrent runs may share an index, so everything is atomic. Padding
// keeps neighbouring slots off one cache line: these counters are
// bumped once per worker per run, but a stolen-item burst would
// otherwise false-share with the victim's accounting.
type slot struct {
	chunks atomic.Int64 // work items executed as this worker index
	steals atomic.Int64 // items taken from another worker's deque
	idleNS atomic.Int64 // time spent out of local work (steal scans + final drain)
	_      [104]byte    // pad to two 64-byte lines
}

// New returns a scheduler over the pool's workers. A nil pool (or one
// worker) yields a scheduler that always runs serially — still valid,
// still counted, so callers need no special-casing.
func New(pool *tensor.Pool) *Scheduler {
	s := &Scheduler{pool: pool}
	s.slots = make([]slot, pool.Workers())
	return s
}

// Workers reports the parallel width. A nil scheduler reports 1.
//
//mnnfast:hotpath
func (s *Scheduler) Workers() int {
	if s == nil {
		return 1
	}
	return len(s.slots)
}

// String describes the scheduler for logs and experiment headers.
//
//mnnfast:coldpath
func (s *Scheduler) String() string {
	return fmt.Sprintf("sched.Scheduler(workers=%d)", s.Workers())
}

// runState is the pooled descriptor of one Run: the seeded deques, the
// caller's item function, and the dispatch closure handed to the
// tensor pool. The closure is built once per descriptor (not per run)
// so the steady-state dispatch allocates nothing.
type runState struct {
	s      *Scheduler
	deques []paddedDeque
	fn     func(worker, lo, hi int)
	base   int // absolute offset of item 0
	n      int // total extent being chunked
	chunk  int // rows per item
	width  int // participating worker slots
	loop   func(worker, lo, hi int)

	// Tracing (nil when the run is untraced). Workers record into ev
	// concurrently — Events slots are claimed atomically — and the
	// dispatch join publishes them to the caller.
	ev       *trace.Events
	evParent int32
}

// paddedDeque keeps each worker's deque state word on its own cache
// line; the owner's Pop and a thief's Steal CAS the same word, but
// neighbouring deques must not drag each other's lines around.
type paddedDeque struct {
	Deque
	_ [32]byte // Deque is 32 bytes; pad to one 64-byte line
}

var runStatePool = sync.Pool{New: func() any {
	r := new(runState)
	r.loop = func(_, lo, hi int) {
		// Grain-1 dispatch: each span is one worker slot. The slot
		// index is the span position, which is stable across the
		// pool's inline-fallback path too.
		for slotIdx := lo; slotIdx < hi; slotIdx++ {
			r.runSlot(slotIdx)
		}
	}
	return r
}}

// Run splits [base, base+n) into ceil(n/chunk) contiguous items of at
// most chunk rows and calls fn(worker, lo, hi) exactly once per item
// with absolute bounds, worker in [0, Workers()). Item i covers
// [base+i·chunk, min(base+(i+1)·chunk, base+n)). fn must be safe to
// call concurrently for distinct items; calls sharing a worker index
// never overlap, so per-worker scratch needs no locking. Run returns
// once every item has completed, with a happens-before edge from every
// fn call, so the caller can merge per-item results immediately — in
// fixed item order for bit-deterministic output.
//
//mnnfast:hotpath
func (s *Scheduler) Run(base, n, chunk int, fn func(worker, lo, hi int)) {
	s.RunEvents(nil, -1, base, n, chunk, fn)
}

// RunEvents is Run with per-worker tracing: each participating worker
// slot records one "worker" event (attrs: worker, chunks, steals,
// idle_ns) into ev under parent. A nil ev records nothing and costs
// one branch per worker — Run simply delegates here.
//
//mnnfast:hotpath
func (s *Scheduler) RunEvents(ev *trace.Events, parent int32, base, n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	nItems := (n + chunk - 1) / chunk
	width := s.Workers()
	if width > nItems {
		width = nItems
	}
	if width == 1 {
		if s != nil {
			s.ser.Add(1)
			s.slots[0].chunks.Add(int64(nItems))
		}
		we := ev.Begin("worker", parent)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(0, base+lo, base+hi)
		}
		ev.Annotate(we, "worker", 0)
		ev.Annotate(we, "chunks", int64(nItems))
		ev.End(we)
		return
	}

	s.runs.Add(1)
	r := runStatePool.Get().(*runState)
	r.s, r.fn = s, fn
	r.base, r.n, r.chunk, r.width = base, n, chunk, width
	r.ev, r.evParent = ev, parent
	if cap(r.deques) < width {
		r.deques = make([]paddedDeque, width)
	}
	r.deques = r.deques[:width]

	// Seed each slot with a contiguous run of items: workers stream
	// forward through disjoint row bands (sequential-friendly access),
	// and a steal takes the item farthest from its victim's cursor.
	per, rem := nItems/width, nItems%width
	lo := 0
	for w := 0; w < width; w++ {
		take := per
		if w < rem {
			take++
		}
		r.deques[w].Reset(uint32(lo), uint32(lo+take))
		lo += take
	}

	s.pool.ParallelForWorker(width, 1, r.loop)

	r.s, r.fn, r.ev = nil, nil, nil
	runStatePool.Put(r)
}

// exec runs item it as worker slotIdx.
//
//mnnfast:hotpath
func (r *runState) exec(slotIdx int, it uint32) {
	lo := int(it) * r.chunk
	hi := lo + r.chunk
	if hi > r.n {
		hi = r.n
	}
	r.fn(slotIdx, r.base+lo, r.base+hi)
}

// runSlot is one worker's life inside a run: drain the local deque
// front-to-back, then go thieving until every deque is dry. Items are
// seeded before the dispatch and never added during it, so one full
// scan of all deques finding nothing means the run's work is fully
// claimed and the slot can retire. The per-iteration clock reads are
// the point — they split wall time between compute and idle for the
// imbalance histogram — so timenow is allowed.
//
//mnnfast:hotpath allow=timenow
func (r *runState) runSlot(slotIdx int) {
	we := r.ev.Begin("worker", r.evParent)
	sc := &r.s.slots[slotIdx]
	d := &r.deques[slotIdx].Deque
	local := int64(0)
	for {
		it, ok := d.Pop()
		if !ok {
			break
		}
		r.exec(slotIdx, it)
		local++
	}
	sc.chunks.Add(local)

	// Out of local work — the zero-skipping imbalance case. Scan the
	// other deques round-robin from our right-hand neighbour, stealing
	// from the tail; time away from compute is attributed to idleNS.
	idleFrom := time.Now()
	var idle time.Duration
	stolen := int64(0)
	for {
		found := false
		for off := 1; off < r.width; off++ {
			v := slotIdx + off
			if v >= r.width {
				v -= r.width
			}
			it, ok := r.deques[v].Steal()
			if !ok {
				continue
			}
			idle += time.Since(idleFrom)
			r.exec(slotIdx, it)
			stolen++
			idleFrom = time.Now()
			found = true
			break
		}
		if !found {
			break
		}
	}
	idle += time.Since(idleFrom)
	if stolen > 0 {
		sc.chunks.Add(stolen)
		sc.steals.Add(stolen)
	}
	sc.idleNS.Add(int64(idle))
	r.ev.Annotate(we, "worker", int64(slotIdx))
	r.ev.Annotate(we, "chunks", local+stolen)
	r.ev.Annotate(we, "steals", stolen)
	r.ev.Annotate(we, "idle_ns", int64(idle))
	r.ev.End(we)
}

// WorkerStats is one worker slot's cumulative accounting.
type WorkerStats struct {
	Chunks int64 `json:"chunks"`  // work items executed as this slot
	Steals int64 `json:"steals"`  // of those, taken from another slot's deque
	IdleNS int64 `json:"idle_ns"` // time out of local work (scans + final drain)
}

// Stats is a point-in-time snapshot of a scheduler's counters.
type Stats struct {
	Workers    int           `json:"workers"`
	Runs       int64         `json:"runs"`        // parallel runs dispatched
	SerialRuns int64         `json:"serial_runs"` // runs short-circuited to one worker
	PerWorker  []WorkerStats `json:"per_worker"`
}

// TotalChunks sums executed items across workers.
func (st Stats) TotalChunks() int64 {
	var n int64
	for _, w := range st.PerWorker {
		n += w.Chunks
	}
	return n
}

// TotalSteals sums stolen items across workers.
func (st Stats) TotalSteals() int64 {
	var n int64
	for _, w := range st.PerWorker {
		n += w.Steals
	}
	return n
}

// TotalIdleNS sums out-of-work time across workers.
func (st Stats) TotalIdleNS() int64 {
	var n int64
	for _, w := range st.PerWorker {
		n += w.IdleNS
	}
	return n
}

// Snapshot copies the counters. A nil scheduler reports a zero-width
// snapshot.
//
//mnnfast:coldpath
func (s *Scheduler) Snapshot() Stats {
	if s == nil {
		return Stats{Workers: 1}
	}
	st := Stats{
		Workers:    len(s.slots),
		Runs:       s.runs.Load(),
		SerialRuns: s.ser.Load(),
		PerWorker:  make([]WorkerStats, len(s.slots)),
	}
	for i := range s.slots {
		st.PerWorker[i] = WorkerStats{
			Chunks: s.slots[i].chunks.Load(),
			Steals: s.slots[i].steals.Load(),
			IdleNS: s.slots[i].idleNS.Load(),
		}
	}
	return st
}

// WorkerChunks, WorkerSteals, and WorkerIdleNS read one slot's counter
// without snapshotting the whole scheduler — the obs CounterFunc hooks
// use these so a metrics scrape allocates nothing per counter.
func (s *Scheduler) WorkerChunks(i int) int64 { return s.slots[i].chunks.Load() }

// WorkerSteals reads slot i's stolen-item count.
func (s *Scheduler) WorkerSteals(i int) int64 { return s.slots[i].steals.Load() }

// WorkerIdleNS reads slot i's out-of-work nanoseconds.
func (s *Scheduler) WorkerIdleNS(i int) int64 { return s.slots[i].idleNS.Load() }

// Runs reads the parallel-run count.
func (s *Scheduler) Runs() int64 { return s.runs.Load() }

// SerialRuns reads the serial-fallback run count.
func (s *Scheduler) SerialRuns() int64 { return s.ser.Load() }
