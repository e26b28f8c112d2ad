// Package batcher is a dynamic micro-batching scheduler: concurrent
// callers hand it one request each, and a single dispatcher coalesces
// them into batches for a caller-supplied run function. The flush rule
// is Nagle's without the timer: whenever the dispatcher is free it
// flushes everything queued, up to MaxBatch. Requests that arrive while
// a batch runs queue up and ride the next flush together, so batches
// grow with load and a lone request never waits for company.
//
// This is the serving-side mechanism behind the paper's batching
// argument (§4.1.2): the inference engine amortizes every memory-row
// read across the questions of a batch, but someone has to turn a
// stream of independent HTTP requests into batches without letting tail
// latency or overload behavior degrade. The batcher owns that policy:
//
//   - Bounded queue with admission control: a full queue rejects
//     immediately with ErrQueueFull (the server maps this to 429 +
//     Retry-After) instead of building an unbounded backlog.
//   - Deadline propagation: a request whose context ends while queued
//     is completed with the context error and never occupies a batch
//     slot (the server maps this to 504).
//   - Graceful drain: Close stops admission (ErrClosed → 503), flushes
//     everything queued, and returns only when the last batch has run.
//
// The request type T is generic; responses travel inside T (use a
// pointer type and let the run function fill result fields), so the
// steady-state path allocates nothing — pending wrappers are pooled and
// their completion channels are reused.
package batcher

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Errors returned by Do at admission time.
var (
	// ErrQueueFull rejects a request because the queue is at capacity.
	ErrQueueFull = errors.New("batcher: queue full")
	// ErrClosed rejects a request because Close has been called.
	ErrClosed = errors.New("batcher: closed")
)

// DefaultMaxBatch is the flush size used when Options.MaxBatch is zero.
const DefaultMaxBatch = 8

// Options shape the flush and admission policy.
type Options struct {
	// MaxBatch caps how many queued requests one flush takes (default
	// DefaultMaxBatch).
	MaxBatch int
	// QueueDepth bounds how many requests may sit queued awaiting
	// collection (default 4×MaxBatch). Admission beyond it fails with
	// ErrQueueFull.
	QueueDepth int
	// Metrics, when non-nil, receives batch-size, queue-wait, flush,
	// shed, and expiry accounting.
	Metrics *Metrics
}

func (o *Options) normalize() {
	if o.MaxBatch < 1 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 4 * o.MaxBatch
	}
}

// pending wraps one queued request. The done channel is buffered and
// never closed, so the wrapper can be pooled and reused; completion is
// one token send.
type pending[T any] struct {
	ctx  context.Context
	val  T
	err  error
	enq  time.Time
	done chan struct{}
}

// Batcher coalesces concurrent Do calls into batches for run.
type Batcher[T any] struct {
	run func([]T)
	opt Options

	queue chan *pending[T]
	pool  sync.Pool

	mu     sync.RWMutex // closed transitions under the write lock
	closed bool         // guarded by mu

	drained chan struct{} // closed when the dispatcher has flushed everything

	// Dispatcher-owned scratch, reused across flushes.
	batch []*pending[T]
	vals  []T
}

// New starts a batcher around run, which receives each flushed batch on
// the single dispatcher goroutine (never concurrently) and must fill
// each request's response in place before returning. Call Close to
// drain and stop.
func New[T any](run func(batch []T), opt Options) *Batcher[T] {
	opt.normalize()
	b := &Batcher[T]{
		run:     run,
		opt:     opt,
		queue:   make(chan *pending[T], opt.QueueDepth),
		drained: make(chan struct{}),
		batch:   make([]*pending[T], 0, opt.MaxBatch),
		vals:    make([]T, 0, opt.MaxBatch),
	}
	go b.dispatch()
	return b
}

// QueueLen reports how many requests are queued awaiting collection,
// for queue-depth gauges.
func (b *Batcher[T]) QueueLen() int { return len(b.queue) }

// Do submits one request and blocks until its batch has run (returning
// nil, with the response filled into val by run), admission fails
// (ErrQueueFull, ErrClosed), or ctx ends first (returning ctx.Err();
// the request is abandoned and, if still queued at flush time, sheds
// its batch slot).
//
//mnnfast:hotpath
func (b *Batcher[T]) Do(ctx context.Context, val T) error {
	p, _ := b.pool.Get().(*pending[T])
	if p == nil {
		p = &pending[T]{done: make(chan struct{}, 1)}
	}
	p.ctx, p.val, p.err = ctx, val, nil
	p.enq = time.Now()

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.recycle(p)
		return ErrClosed
	}
	select {
	case b.queue <- p:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.recycle(p)
		if m := b.opt.Metrics; m != nil {
			m.Shed.Inc()
		}
		return ErrQueueFull
	}

	select {
	case <-p.done:
		err := p.err
		b.recycle(p)
		return err
	case <-ctx.Done():
		// Abandoned: the dispatcher still completes p eventually (its
		// done send cannot block — the channel is buffered), but the
		// wrapper is not recycled because the dispatcher may yet touch
		// it.
		return ctx.Err()
	}
}

// recycle returns a completed (or never-enqueued) wrapper to the pool.
//
//mnnfast:pool-put
func (b *Batcher[T]) recycle(p *pending[T]) {
	var zero T
	p.ctx, p.val, p.err = nil, zero, nil
	b.pool.Put(p)
}

// Close stops admission, drains every queued request through run, and
// returns once the last batch has completed. Safe to call more than
// once.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	<-b.drained
}

// dispatch is the single scheduler goroutine: collect a batch, flush,
// repeat until the queue is closed and empty.
func (b *Batcher[T]) dispatch() {
	defer close(b.drained)
	for {
		p, ok := <-b.queue
		if !ok {
			return
		}
		b.collect(p)
		b.flush()
	}
}

// collect gathers up to MaxBatch requests into b.batch, starting from
// first, taking only what is already queued: the dispatcher never waits
// for stragglers, since those that arrive while this batch runs are
// queued for the next collect.
//
//mnnfast:hotpath allow=append b.batch grows only toward MaxBatch capacity set at construction
func (b *Batcher[T]) collect(first *pending[T]) {
	b.batch = append(b.batch[:0], first)
	for len(b.batch) < b.opt.MaxBatch {
		select {
		case p, ok := <-b.queue:
			if !ok {
				return
			}
			b.batch = append(b.batch, p)
		default:
			return
		}
	}
}

// flush completes expired requests, runs the live remainder, and
// completes them.
//
//mnnfast:hotpath allow=append live/vals grow only toward MaxBatch capacity set at construction
func (b *Batcher[T]) flush() {
	m := b.opt.Metrics
	now := time.Now()
	live := b.batch[:0]
	b.vals = b.vals[:0]
	for _, p := range b.batch {
		if err := p.ctx.Err(); err != nil {
			// Expired while queued: complete without a batch slot.
			if m != nil {
				m.Expired.Inc()
			}
			p.err = err
			p.done <- struct{}{}
			continue
		}
		if m != nil {
			m.QueueWait.Observe(now.Sub(p.enq))
		}
		live = append(live, p)
		b.vals = append(b.vals, p.val)
	}
	b.batch = live
	if len(live) == 0 {
		return
	}
	b.run(b.vals)
	if m != nil {
		m.BatchSize.Observe(int64(len(live)))
		m.Flushes.Inc()
	}
	for _, p := range live {
		p.done <- struct{}{}
	}
}
