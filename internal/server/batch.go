package server

import (
	"errors"
	"net/http"

	"mnnfast/internal/batcher"
	"mnnfast/internal/memnn"
	"mnnfast/internal/trace"
)

// errNoStory marks an answer item whose session has no story; the HTTP
// layer maps it to 409 exactly like the unbatched path.
var errNoStory = errors.New("no story in session; POST /v1/story first")

// retryAfter is the Retry-After hint, in seconds, on a 429 from a full
// answer queue: the smallest positive value the header can carry, since
// a queued answer waits only for the flushes ahead of it.
const retryAfter = "1"

// BatchOptions configures dynamic micro-batching for /v1/answer.
type BatchOptions struct {
	// MaxBatch caps the flush size (default batcher.DefaultMaxBatch).
	MaxBatch int
	// QueueDepth bounds the admission queue (default 4×MaxBatch); a full
	// queue answers 429 with a Retry-After hint.
	QueueDepth int
}

// answerItem is one /v1/answer request's trip through the batcher: the
// handler fills sess and qIDs, the batch runner fills idx/n or err.
// Items are pooled; the handler recycles them after a completed Do.
//
// The trace relay fields implement single-writer handoff: the dispatcher
// writes only these plain fields (timestamps from trace.Now, flush
// metadata, a CopyFrom of the flush's event log) and never touches the
// request's *trace.Trace; the handler reads them and builds spans after
// Do returns, ordered by the batcher's done channel. Items abandoned on
// context expiry (504) are never read by their handler afterward and
// never recycled, so the relay is race-free without further
// synchronization.
type answerItem struct {
	sess *session
	qIDs []int

	idx     int   // predicted answer index
	n       int   // session story length at answer time
	exitHop int   // hops executed (< model hops when the gate shed it)
	err     error // errNoStory, or a vectorize/embed failure

	reqID        string // X-Request-ID, for the batch-flush access log
	traced       bool   // request carries a trace; copy the event log
	flushStartNS int64  // trace.Now at flush start; 0 = never flushed
	inferStartNS int64  // trace.Now around the batched inference call
	inferEndNS   int64
	flushEndNS   int64
	flushSeq     int64 // dispatcher flush counter
	batchSize    int   // items in this item's flush
	cacheHit     bool  // session embedding cache was valid
	embedNS      int64 // >0: this item's flush embedded the session
	ev           trace.Events
}

// batchState is the dispatcher-owned scratch for runAnswerBatch, reused
// across flushes so the steady-state batched path allocates nothing.
// Only the single batcher dispatcher goroutine touches it.
type batchState struct {
	sessions []*session // distinct sessions in this batch, each locked
	wlocked  []bool     // true if sessions[j] is write-locked
	serr     []error    // per-session admission error (nil = usable)

	live    []*answerItem
	exs     []memnn.Example
	stories []*memnn.EmbeddedStory
	out     []int
	bf      memnn.BatchForward
	ins     memnn.Instrumentation

	hit      []bool  // per-session: embedding cache was valid on lock
	embNS    []int64 // per-session: time spent embedding (0 = no embed)
	ev       trace.Events
	flushSeq int64
}

// EnableBatching routes /v1/answer through a micro-batching scheduler:
// concurrent questions are coalesced into one batched inference call
// per flush (see memnn.PredictBatch), which amortizes every
// shared matrix-row read across the batch — the serving-side realization
// of the paper's §4.1.2 batching argument. Batched answers are
// bit-identical to unbatched ones.
//
// Call once, before the server starts handling requests; pair with
// Close for a graceful drain.
func (s *Server) EnableBatching(opt BatchOptions) {
	if s.batch != nil {
		panic("server: EnableBatching called twice")
	}
	b := batcher.New(s.runAnswerBatch, batcher.Options{
		MaxBatch:   opt.MaxBatch,
		QueueDepth: opt.QueueDepth,
		Metrics:    batcher.NewMetrics(s.met.reg),
	})
	s.met.reg.GaugeFunc("mnnfast_batch_queue_length",
		"Answer requests queued awaiting batch collection.",
		func() int64 { return int64(b.QueueLen()) })
	s.batch = b
}

// Close drains the answer batcher (if batching is enabled): admission
// stops (new answers get 503), queued requests finish, and Close
// returns once the last batch has run — then the parallel worker pool
// (if EnableParallelism was called) shuts down. Safe to call more than
// once and on a server without batching or parallelism.
func (s *Server) Close() {
	if s.batch != nil {
		s.batch.Close()
	}
	if s.parPool != nil {
		s.parPool.Close()
		s.parPool = nil
	}
}

// answerBatched is the /v1/answer tail when batching is enabled: submit
// the vectorized question to the batcher and map the outcome onto the
// same status codes the unbatched path uses, plus the admission-control
// codes (429 queue full, 503 closed, 504 expired while queued).
func (s *Server) answerBatched(w http.ResponseWriter, r *http.Request, sess *session, qIDs []int) {
	tr := traceFrom(r.Context())
	it, _ := s.items.Get().(*answerItem)
	if it == nil {
		it = new(answerItem)
	}
	it.sess, it.qIDs, it.idx, it.n, it.exitHop, it.err = sess, qIDs, 0, 0, 0, nil
	it.reqID = w.Header().Get("X-Request-ID")
	it.traced = tr != nil
	it.flushStartNS, it.inferStartNS, it.inferEndNS, it.flushEndNS = 0, 0, 0, 0
	it.flushSeq, it.batchSize, it.cacheHit, it.embedNS = 0, 0, false, 0

	wait := tr.Start("queue-wait", tr.Root())
	err := s.batch.Do(r.Context(), it)
	switch {
	case err == nil:
		if it.flushStartNS != 0 {
			tr.FinishAt(wait, it.flushStartNS)
		} else {
			tr.Finish(wait)
		}
		s.itemSpans(tr, it)
		ierr, idx, n := it.err, it.idx, it.n
		it.sess, it.qIDs, it.err, it.reqID, it.traced = nil, nil, nil, "", false
		s.items.Put(it)
		if ierr != nil {
			if errors.Is(ierr, errNoStory) {
				httpError(w, http.StatusConflict, "%v", ierr)
			} else {
				httpError(w, http.StatusUnprocessableEntity, "%v", ierr)
			}
			return
		}
		writeJSON(w, http.StatusOK, AnswerResponse{
			Answer: s.corpus.AnswerWord(idx), Index: idx, Sentences: n,
		})
	case errors.Is(err, batcher.ErrQueueFull):
		tr.Finish(wait)
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, "answer queue full; retry after %ss", retryAfter)
	case errors.Is(err, batcher.ErrClosed):
		tr.Finish(wait)
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		tr.Finish(wait)
		// The request's context ended while it waited in the queue; the
		// item was abandoned to the dispatcher, so it is not recycled.
		httpError(w, http.StatusGatewayTimeout, "request expired while queued: %v", err)
	}
}

// runAnswerBatch answers one flushed batch with a single batched
// inference call. It runs on the batcher's dispatcher goroutine, which
// is the only multi-session lock holder in the process: every other
// locker (handleStory, the unbatched answer path) holds at most one
// session lock and never blocks on a second, so holding several here
// cannot deadlock. The self pin below records exactly that argument
// for the lockorder analyzer, which otherwise flags the loop-carried
// session.mu acquisitions acquire hands back to this loop.
//
//mnnfast:lockorder session.mu < session.mu single multi-session holder: the dispatcher goroutine
//mnnfast:hotpath allow=append batch scratch slices grow only toward MaxBatch
//mnnfast:locked it.sess.mu
func (s *Server) runAnswerBatch(items []*answerItem) {
	st := &s.bstate
	st.sessions = st.sessions[:0]
	st.wlocked = st.wlocked[:0]
	st.serr = st.serr[:0]
	st.hit = st.hit[:0]
	st.embNS = st.embNS[:0]
	st.live = st.live[:0]
	st.exs = st.exs[:0]
	st.stories = st.stories[:0]
	st.flushSeq++
	flushStart := trace.Now()
	needEv := false

	for _, it := range items {
		it.flushStartNS = flushStart
		it.flushSeq = st.flushSeq
		it.batchSize = len(items)
		if it.traced {
			needEv = true
		}
		// Batches are small: a linear pointer scan dedups sessions
		// without a map allocation.
		si := -1
		for j, sess := range st.sessions {
			if sess == it.sess {
				si = j
				break
			}
		}
		dedup := si >= 0
		if si < 0 {
			// Held until the flush ends, so the session's later items
			// find it above. Accounting as on the unbatched path.
			si = len(st.sessions)
			wlocked, hit, embNS, err := s.acquire(it.sess, nil)
			st.sessions = append(st.sessions, it.sess)
			st.wlocked = append(st.wlocked, wlocked)
			st.serr = append(st.serr, err)
			st.hit = append(st.hit, hit)
			st.embNS = append(st.embNS, embNS)
		} else if st.serr[si] == nil {
			s.met.cacheHits.Inc() // embedded earlier in this same batch
		}
		if err := st.serr[si]; err != nil {
			it.err = err
			continue
		}
		it.err = nil
		it.n = it.sess.received
		it.cacheHit = dedup || st.hit[si]
		it.embedNS = st.embNS[si]
		st.live = append(st.live, it)
		st.exs = append(st.exs, memnn.Example{Sentences: it.sess.sentences, Question: it.qIDs})
		st.stories = append(st.stories, &it.sess.emb)
	}

	if len(st.live) > 0 {
		if cap(st.out) < len(st.live) {
			st.out = make([]int, len(st.live))
		}
		st.out = st.out[:len(st.live)]
		st.ins.Reset()
		if needEv {
			st.ev.Reset()
			st.ins.Ev = &st.ev
		}
		inferStart := trace.Now()
		s.model.PredictBatch(st.exs, s.SkipThreshold, s.ExitPolicy, st.stories, &st.bf, &st.ins, st.out)
		inferEnd := trace.Now()
		s.met.observeInference(&st.ins)
		st.ins.Ev = nil
		gated := s.ExitPolicy.Enabled()
		for i, it := range st.live {
			it.idx = st.out[i]
			it.exitHop = st.bf.ExitHop(i)
			if gated {
				s.met.observeExit(it.exitHop)
			}
			it.inferStartNS, it.inferEndNS = inferStart, inferEnd
			if it.traced {
				it.ev.CopyFrom(&st.ev)
			}
		}
	}

	for j, sess := range st.sessions {
		sess.release(st.wlocked[j])
		st.sessions[j] = nil // don't pin sessions until the next flush
	}
	st.sessions = st.sessions[:0]

	end := trace.Now()
	for _, it := range items {
		it.flushEndNS = end
	}
	if s.AccessLog != nil {
		s.logBatchFlush(items, st.flushSeq)
	}
}

// logBatchFlush writes one access-log line per item of a flush, tying
// each request ID to the flush it rode in.
//
//mnnfast:coldpath
func (s *Server) logBatchFlush(items []*answerItem, seq int64) {
	for _, it := range items {
		s.AccessLog.Printf("batch_flush=%d batch_size=%d request_id=%s", seq, len(items), it.reqID)
	}
}
