package trace

import "sync/atomic"

// MaxEvents bounds one Events buffer. Sizing: a batched inference with
// H hops and W scheduler workers records 2 + H×(1+W) events; at the
// supported maxima (8 hops, 16 workers) that is 138 — callers with
// deeper shapes lose tail events, counted in Dropped.
const MaxEvents = 160

// Event is one timed operation captured outside a specific trace.
// Parent is the index of another event in the same buffer, or -1 to
// attach to the span AddEvents is given.
type Event struct {
	Name    string
	Parent  int32
	StartNS int64
	EndNS   int64
	NAttr   int32
	Attrs   [MaxAttrs]Attr
}

// Events is a fixed-capacity concurrent event log. Slots are claimed
// with an atomic counter; each claimed slot has a single writer, so
// concurrent scheduler workers can record events without locks. The
// buffer's owner must establish a happens-before edge (e.g. the
// scheduler's join) before reading or copying events.
//
// All methods are nil-receiver safe; a nil *Events disables recording
// at one branch per call site.
type Events struct {
	n       atomic.Int32
	dropped atomic.Int32
	ev      [MaxEvents]Event
	// ids maps event index → SpanID assigned during AddEvents, so
	// parent links survive the copy. Scratch; owner-goroutine only.
	ids [MaxEvents]SpanID
}

// Reset empties the buffer. Owner only; no concurrent writers.
func (e *Events) Reset() {
	if e == nil {
		return
	}
	e.n.Store(0)
	e.dropped.Store(0)
}

// Begin claims an event, stamps its start, and returns its index.
// Returns -1 (a valid no-op index) when full or e is nil.
//
//mnnfast:hotpath
func (e *Events) Begin(name string, parent int32) int32 {
	if e == nil {
		return -1
	}
	return e.BeginAt(name, parent, Now())
}

// BeginAt is Begin with the start time (a Now reading) supplied by a
// caller that wants the same clock read for a timer of its own.
//
//mnnfast:hotpath
func (e *Events) BeginAt(name string, parent int32, now int64) int32 {
	if e == nil {
		return -1
	}
	n := e.n.Add(1)
	if int(n) > MaxEvents {
		e.dropped.Add(1)
		return -1
	}
	ev := &e.ev[n-1]
	ev.Name = name
	ev.Parent = parent
	ev.StartNS = now
	ev.EndNS = 0
	ev.NAttr = 0
	return n - 1
}

// End stamps the event's end time. No-op for index -1 or nil e.
//
//mnnfast:hotpath
func (e *Events) End(i int32) {
	if e == nil || i < 0 {
		return
	}
	e.ev[i].EndNS = Now()
}

// EndAt is End with the end time supplied, the counterpart of BeginAt.
//
//mnnfast:hotpath
func (e *Events) EndAt(i int32, now int64) {
	if e == nil || i < 0 {
		return
	}
	e.ev[i].EndNS = now
}

// Annotate attaches an integer attribute to an event.
//
//mnnfast:hotpath
func (e *Events) Annotate(i int32, key string, val int64) {
	if e == nil || i < 0 {
		return
	}
	ev := &e.ev[i]
	if int(ev.NAttr) >= MaxAttrs {
		return
	}
	ev.Attrs[ev.NAttr] = Attr{Key: key, Val: val}
	ev.NAttr++
}

// Len returns the number of recorded (non-dropped) events.
func (e *Events) Len() int {
	if e == nil {
		return 0
	}
	n := int(e.n.Load())
	if n > MaxEvents {
		n = MaxEvents
	}
	return n
}

// Dropped returns the number of events lost to buffer exhaustion.
func (e *Events) Dropped() int {
	if e == nil {
		return 0
	}
	return int(e.dropped.Load())
}

// CopyFrom replaces e's contents with src's. Events are plain structs
// (the atomics live on the buffer, not the slots), so slot copies are
// direct assignments. Both buffers must be quiescent: src's writers
// joined, e owned by the caller.
//
//mnnfast:hotpath
func (e *Events) CopyFrom(src *Events) {
	if e == nil || src == nil {
		return
	}
	n := int(src.n.Load())
	if n > MaxEvents {
		n = MaxEvents
	}
	for i := 0; i < n; i++ {
		e.ev[i] = src.ev[i]
	}
	e.n.Store(int32(n))
	e.dropped.Store(src.dropped.Load())
}

// AddEvents replays a quiescent event buffer into the trace as spans
// under parent. Events whose Parent index resolved to a recorded span
// nest there; the rest attach to parent directly. Events are written
// in claim order, so a parent's index is always lower than its
// children's and the remap table is filled before it is read.
//
//mnnfast:hotpath
func (t *Trace) AddEvents(parent SpanID, ev *Events) {
	if t == nil || ev == nil {
		return
	}
	n := int(ev.n.Load())
	if n > MaxEvents {
		n = MaxEvents
	}
	for i := 0; i < n; i++ {
		src := &ev.ev[i]
		p := parent
		if src.Parent >= 0 && int(src.Parent) < i {
			if pid := ev.ids[src.Parent]; pid != 0 {
				p = pid
			}
		}
		id := t.StartAt(src.Name, p, src.StartNS)
		ev.ids[i] = id
		if id == 0 {
			continue
		}
		sp := t.span(id)
		sp.EndNS = src.EndNS
		sp.NAttr = src.NAttr
		sp.Attrs = src.Attrs
	}
	if d := ev.dropped.Load(); d != 0 {
		t.dropped.Add(d)
	}
}
