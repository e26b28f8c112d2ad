package batcher

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnnfast/internal/obs"
)

// waitFor polls cond for up to ~2s; the conditions under test are
// driven by a live dispatcher goroutine, not by wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// req is the test request type: run doubles X into Y.
type req struct {
	X, Y int
}

func doubler(batch []*req) {
	for _, r := range batch {
		r.Y = 2 * r.X
	}
}

func TestFlushOnMaxBatch(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	b := New(doubler, Options{MaxBatch: 4, QueueDepth: 16, Metrics: m})
	defer b.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	reqs := make([]*req, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqs[i] = &req{X: i}
			errs[i] = b.Do(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Do %d: %v", i, errs[i])
		}
		if reqs[i].Y != 2*i {
			t.Errorf("req %d: Y = %d, want %d", i, reqs[i].Y, 2*i)
		}
	}
	if got := m.BatchSize.Sum(); got != n {
		t.Errorf("batch size sum = %d, want %d", got, n)
	}
	if fl := m.Flushes.Value(); fl < 2 || fl > n {
		t.Errorf("flushes = %d, want in [2, %d]", fl, n)
	}
}

// TestStragglersJoinNextFlush pins the flush rule: a lone request
// flushes at once, and requests that queue while a batch runs ride the
// next flush together, however far short of MaxBatch they are.
func TestStragglersJoinNextFlush(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var mu sync.Mutex
	var sizes []int
	b := New(func(batch []*req) {
		mu.Lock()
		sizes = append(sizes, len(batch))
		mu.Unlock()
		started <- struct{}{}
		<-gate
		doubler(batch)
	}, Options{MaxBatch: 8, Metrics: m})
	defer b.Close()

	var wg sync.WaitGroup
	reqs := make([]*req, 0, 4)
	do := func(x int) {
		r := &req{X: x}
		reqs = append(reqs, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Do(context.Background(), r); err != nil {
				t.Errorf("Do(%d): %v", x, err)
			}
		}()
	}
	// A lone request cannot fill MaxBatch=8; the free dispatcher
	// flushes it anyway.
	do(0)
	<-started // batch [0] is in run, holding the dispatcher on the gate

	// N < MaxBatch stragglers queue while the dispatcher is busy.
	const n = 3
	for x := 1; x <= n; x++ {
		do(x)
	}
	waitFor(t, "stragglers queued", func() bool { return b.QueueLen() == n })
	close(gate) // release batch [0]; later runs pass the gate at once
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != n {
		t.Errorf("flush sizes = %v, want [1 %d]", sizes, n)
	}
	for _, r := range reqs {
		if r.Y != 2*r.X {
			t.Errorf("req %d: Y = %d, want %d", r.X, r.Y, 2*r.X)
		}
	}
	if m.Flushes.Value() != 2 || m.BatchSize.Count() != 2 || m.BatchSize.Sum() != n+1 {
		t.Errorf("flushes/batch size count/sum = %d/%d/%d, want 2/2/%d",
			m.Flushes.Value(), m.BatchSize.Count(), m.BatchSize.Sum(), n+1)
	}
	if m.QueueWait.Count() != n+1 {
		t.Errorf("queue wait count = %d, want %d", m.QueueWait.Count(), n+1)
	}
}

// gatedBatcher builds a batcher whose run blocks until the gate opens,
// so tests can hold a batch in flight while probing admission.
func gatedBatcher(opt Options) (b *Batcher[*req], gate chan struct{}, started chan struct{}, ran *atomic.Int64) {
	gate = make(chan struct{})
	started = make(chan struct{}, 64)
	ran = new(atomic.Int64)
	b = New(func(batch []*req) {
		started <- struct{}{}
		<-gate
		ran.Add(int64(len(batch)))
		doubler(batch)
	}, opt)
	return b, gate, started, ran
}

func TestQueueFullShedsImmediately(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	b, gate, started, _ := gatedBatcher(Options{MaxBatch: 1, QueueDepth: 2, Metrics: m})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // 1 in flight + 2 queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Do(context.Background(), &req{X: i}); err != nil {
				t.Errorf("Do(%d): %v", i, err)
			}
		}(i)
	}
	<-started // batch 1 is in run, holding the dispatcher
	waitFor(t, "queue full", func() bool { return b.QueueLen() == 2 })

	// Admission control: the 4th request is rejected NOW, not queued.
	t0 := time.Now()
	err := b.Do(context.Background(), &req{X: 99})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on full queue = %v, want ErrQueueFull", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("full-queue rejection took %v, want immediate", d)
	}
	if m.Shed.Value() != 1 {
		t.Errorf("shed = %d, want 1", m.Shed.Value())
	}

	close(gate) // release the in-flight batch and let the queue drain
	wg.Wait()
	b.Close()
}

func TestExpiredWhileQueuedSkipsBatchSlot(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	b, gate, started, ran := gatedBatcher(Options{MaxBatch: 1, QueueDepth: 4, Metrics: m})
	defer b.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := b.Do(context.Background(), &req{X: 1}); err != nil {
			t.Errorf("Do(1): %v", err)
		}
	}()
	<-started // first batch in flight, dispatcher blocked in run

	// Queue a request, then cancel it while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		expired <- b.Do(ctx, &req{X: 2})
	}()
	waitFor(t, "second request queued", func() bool { return b.QueueLen() == 1 })
	cancel()
	if err := <-expired; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Do = %v, want context.Canceled", err)
	}

	close(gate) // release the first batch; dispatcher collects the corpse
	wg.Wait()
	waitFor(t, "expiry accounted", func() bool { return m.Expired.Value() == 1 })

	// The canceled request never reached run: only request 1 executed,
	// and only one flush was recorded.
	if got := ran.Load(); got != 1 {
		t.Errorf("run saw %d requests, want 1 (expired request occupied a batch slot)", got)
	}
	if m.Flushes.Value() != 1 || m.BatchSize.Count() != 1 {
		t.Errorf("flushes/batches = %d/%d, want 1/1", m.Flushes.Value(), m.BatchSize.Count())
	}
}

func TestCloseDrainsInFlightAndQueued(t *testing.T) {
	b, gate, started, ran := gatedBatcher(Options{MaxBatch: 1, QueueDepth: 8})

	const n = 3
	var wg sync.WaitGroup
	reqs := make([]*req, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqs[i] = &req{X: i}
			if err := b.Do(context.Background(), reqs[i]); err != nil {
				t.Errorf("Do(%d): %v", i, err)
			}
		}(i)
	}
	<-started
	waitFor(t, "remaining requests queued", func() bool { return b.QueueLen() == n-1 })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate) // let the drain proceed
	<-closed
	wg.Wait()
	if got := ran.Load(); got != n {
		t.Errorf("drained %d requests, want %d", got, n)
	}
	for i, r := range reqs {
		if r.Y != 2*i {
			t.Errorf("req %d: Y = %d, want %d (lost in drain)", i, r.Y, 2*i)
		}
	}

	// Post-close admission fails fast; a second Close is a no-op.
	if err := b.Do(context.Background(), &req{X: 9}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	b.Close()
}

// TestInterleavingEquivalence is the batcher-level correctness
// property, testing/quick-style with a seeded generator: whatever the
// arrival interleaving and batch-size limit, every Do returns exactly
// its own request's answer.
func TestInterleavingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		maxBatch := 1 + rng.Intn(8)
		var batches atomic.Int64
		b := New(func(batch []*req) {
			if len(batch) < 1 || len(batch) > maxBatch {
				t.Errorf("trial %d: batch size %d outside [1, %d]", trial, len(batch), maxBatch)
			}
			batches.Add(1)
			doubler(batch)
		}, Options{MaxBatch: maxBatch, QueueDepth: 64})

		goroutines := 1 + rng.Intn(8)
		perG := 1 + rng.Intn(10)
		jitter := make([][]time.Duration, goroutines)
		for g := range jitter {
			jitter[g] = make([]time.Duration, perG)
			for i := range jitter[g] {
				jitter[g][i] = time.Duration(rng.Intn(300)) * time.Microsecond
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					time.Sleep(jitter[g][i])
					r := &req{X: g*1000 + i}
					if err := b.Do(context.Background(), r); err != nil {
						t.Errorf("trial %d: Do: %v", trial, err)
						return
					}
					if r.Y != 2*r.X {
						t.Errorf("trial %d: got %d for input %d, want %d (cross-request mixup)",
							trial, r.Y, r.X, 2*r.X)
					}
				}
			}(g)
		}
		wg.Wait()
		b.Close()
		if batches.Load() == 0 {
			t.Errorf("trial %d: no batches ran", trial)
		}
	}
}

// TestConcurrentStress hammers one batcher from many goroutines with
// cancellations and a racing Close — run under -race in CI.
//
// A caller whose context ends after flush has admitted its request to a
// batch still gets ctx.Err() back (Do's contract), so the batch-size sum
// counts the successful requests plus exactly those abandoned ones that
// ran. The run function records which requests ran; it writes only on
// the dispatcher goroutine, and Close orders those writes before the
// reads below.
func TestConcurrentStress(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	ran := make(map[*req]bool)
	run := func(batch []*req) {
		for _, r := range batch {
			ran[r] = true
		}
		doubler(batch)
	}
	b := New(run, Options{MaxBatch: 8, QueueDepth: 32, Metrics: m})

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	var ok, shed, gone atomic.Int64
	var mu sync.Mutex
	var succeeded, abandoned []*req // guarded by mu
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%7 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*100*time.Microsecond)
				}
				r := &req{X: i}
				err := b.Do(ctx, r)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					ok.Add(1)
					if r.Y != 2*i {
						t.Errorf("wrong answer under stress: %d for %d", r.Y, i)
					}
					mu.Lock()
					succeeded = append(succeeded, r)
					mu.Unlock()
				case errors.Is(err, ErrQueueFull):
					shed.Add(1)
				case errors.Is(err, ErrClosed):
					gone.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					gone.Add(1)
					mu.Lock()
					abandoned = append(abandoned, r)
					mu.Unlock()
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	t.Logf("stress: %d ok, %d shed, %d expired/closed; %d flushes, batch p50 %d",
		ok.Load(), shed.Load(), gone.Load(), m.Flushes.Value(), m.BatchSize.Quantile(0.5))
	if ok.Load() == 0 {
		t.Error("no request succeeded under stress")
	}
	for _, r := range succeeded {
		if !ran[r] {
			t.Errorf("request %d succeeded without running in a batch", r.X)
		}
	}
	var late int64
	for _, r := range abandoned {
		if ran[r] {
			late++
		}
	}
	if got, want := m.BatchSize.Sum(), ok.Load()+late; got != want {
		t.Errorf("batch size sum %d != %d successful + %d abandoned after admission to a batch",
			got, ok.Load(), late)
	}
	if got := m.BatchSize.Sum(); got != int64(len(ran)) {
		t.Errorf("batch size sum %d != %d requests that ran", got, len(ran))
	}
}

// TestDoAllocs: the whole Do→collect→flush→complete round trip
// allocates nothing at steady state — pending wrappers are pooled and
// completion channels reused. This is the "0 allocs/op outside the flush boundary" guarantee: the
// model-side counterpart lives in memnn's TestPredictBatchAllocs.
func TestDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are not meaningful")
	}
	b := New(doubler, Options{MaxBatch: 1, QueueDepth: 4})
	defer b.Close()
	r := &req{X: 3}
	ctx := context.Background()
	if err := b.Do(ctx, r); err != nil { // warm the wrapper pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Do(ctx, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Do allocates %v per request, want 0", allocs)
	}
}
