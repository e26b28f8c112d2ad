package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolParallelForCoverage checks every index is visited exactly once
// across span shapes, worker counts, and grains.
func TestPoolParallelForCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 8, 512} {
				visits := make([]int32, n)
				p.ParallelFor(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, v)
					}
				}
			}
		}
		p.Close()
	}
}

// TestPoolWorkerIDs checks ParallelForWorker hands out worker indices
// that are in range and unique per concurrently-live span, by using
// them to index private scratch without synchronization under -race.
func TestPoolWorkerIDs(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		scratch := make([][]int, p.Workers())
		for i := range scratch {
			scratch[i] = make([]int, 1)
		}
		var total atomic.Int64
		p.ParallelForWorker(n, 1, func(worker, lo, hi int) {
			if worker < 0 || worker >= p.Workers() {
				t.Errorf("worker index %d out of range [0, %d)", worker, p.Workers())
			}
			scratch[worker][0] += hi - lo // racy unless IDs are exclusive
			total.Add(int64(hi - lo))
		})
		if total.Load() != n {
			t.Errorf("workers=%d: covered %d of %d", workers, total.Load(), n)
		}
		p.Close()
	}
}

// TestPoolNestedDispatch runs a ParallelFor inside a ParallelFor on the
// same pool — the full-queue inline fallback must keep it live.
func TestPoolNestedDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	p.ParallelFor(16, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelFor(100, 1, func(lo2, hi2 int) {
				count.Add(int64(hi2 - lo2))
			})
		}
	})
	if got := count.Load(); got != 1600 {
		t.Fatalf("nested dispatch covered %d of 1600", got)
	}
}

// TestPoolConcurrentDispatch hammers one pool from many goroutines.
func TestPoolConcurrentDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var count atomic.Int64
				p.ParallelFor(777, 10, func(lo, hi int) {
					count.Add(int64(hi - lo))
				})
				if count.Load() != 777 {
					t.Errorf("covered %d of 777", count.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolDispatchAllocs asserts the steady-state dispatch path is
// allocation-free: spans travel as structs and bookkeeping is pooled.
// The closure is hoisted outside the measured loop, as a hot-path
// caller builds its dispatch closure once and reuses it.
func TestPoolDispatchAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(worker, lo, hi int) { sink.Add(int64(hi - lo)) }
	p.ParallelForWorker(4096, 64, fn) // warm up workers and pools
	allocs := testing.AllocsPerRun(200, func() {
		p.ParallelForWorker(4096, 64, fn)
	})
	if allocs != 0 {
		t.Errorf("ParallelForWorker allocates %v per dispatch, want 0", allocs)
	}
}

// TestPoolCloseIdempotent ensures Close is safe to call repeatedly and
// on pools that never dispatched.
func TestPoolCloseIdempotent(t *testing.T) {
	var nilPool *Pool
	nilPool.Close()

	p := NewPool(1) // serial: no channel
	p.Close()
	p.Close()

	q := NewPool(3) // never dispatched
	q.Close()
	q.Close()

	r := NewPool(3)
	r.ParallelFor(100, 1, func(lo, hi int) {})
	r.Close()
	r.Close()
}

// TestPoolStatsCounters checks the process-wide dispatch accounting:
// parallel dispatches are counted, their spans land in queued or inline,
// and the serial fast path stays invisible. Counters are global, so the
// test asserts deltas, tolerating concurrent test packages only by
// running its own dispatches between reads.
func TestPoolStatsCounters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	before := ReadPoolStats()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		p.ParallelFor(4096, 64, func(lo, hi int) {})
	}
	p.ParallelFor(1, 64, func(lo, hi int) {}) // n <= grain: serial, uncounted
	d := ReadPoolStats()
	if got := d.Dispatches - before.Dispatches; got != rounds {
		t.Errorf("dispatches delta = %d, want %d", got, rounds)
	}
	spans := (d.SpansQueued - before.SpansQueued) + (d.SpansInline - before.SpansInline)
	// Each 4-worker dispatch enqueues 3 spans (span 0 runs in the caller).
	if spans != 3*rounds {
		t.Errorf("spans delta = %d, want %d", spans, 3*rounds)
	}
	if d.DispatchAllocs+d.DispatchReuses != d.Dispatches {
		t.Errorf("allocs %d + reuses %d != dispatches %d",
			d.DispatchAllocs, d.DispatchReuses, d.Dispatches)
	}
}
