// Package server exposes a trained memory network as an HTTP JSON
// service — the "interactive applications" deployment the paper
// sketches in §4.1.1, where the knowledge database is server-side state
// and users submit raw questions.
//
// Endpoints:
//
//	POST /v1/story    {"sentences": ["john went to the kitchen", ...]}
//	                  → appends to (or with "reset": true, replaces) the
//	                    session story
//	POST /v1/answer   {"question": "where is john?"}
//	                  → {"answer": "kitchen", "index": 3, ...}
//	GET  /v1/healthz  → {"status": "ok", ...model metadata}
//	GET  /v1/metrics  → Prometheus text exposition of the runtime metrics
//	GET  /v1/statz    → the same metrics as a JSON snapshot with percentiles
//
// Sessions are keyed by the X-Session header (default "default") so
// multiple users can hold independent stories against one model — the
// multi-tenant setting of the paper's Figure 4. Each session carries its
// own lock plus a cache of its embedded story (the serving-side analogue
// of the paper's §3.3 embedding cache): answers against an unchanged
// story skip the memory-embedding stage entirely, and concurrent answers
// on different sessions never serialize on shared state.
//
// Every request is tagged with an X-Request-ID (caller-supplied or
// generated), echoed in the response and in the optional structured
// access log (Server.AccessLog).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mnnfast/internal/batcher"
	"mnnfast/internal/memnn"
	"mnnfast/internal/obs"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
	"mnnfast/internal/vocab"
)

// session is one user's state: the word IDs of its story, and a cache of
// their embedded memories. A story request is tokenized and encoded once,
// at ingest, into one request-owned ID arena (encodeStory); the session
// keeps sub-slices of it, trimmed to the model's MaxSent most recent
// sentences (keep), which is all the embedding ever reads. The
// per-session lock means answer traffic on different sessions proceeds in
// parallel; within one session, answers share the cache under a read lock
// and only story mutations (or the first answer after one) take the write
// lock.
type session struct {
	mu        sync.RWMutex
	sentences [][]int // word IDs of the most recent MaxSent sentences; guarded by mu
	received  int     // sentences received since the last reset; guarded by mu

	// Embedding cache: valid means emb reflects sentences. Any story
	// mutation invalidates it.
	cacheValid bool                // guarded by mu
	emb        memnn.EmbeddedStory // guarded by mu
}

// keep appends sents, the word IDs of a story request's sentences, to
// the stored story (replacing it when reset) and trims the store to the
// maxSent most recent sentences, the only ones the embedding reads.
// Trimming copies the kept tail down and clears the vacated slots, so a
// request arena that no kept sentence points into is released.
//
//mnnfast:locked sess.mu
func (sess *session) keep(sents [][]int, reset bool, maxSent int) {
	if reset {
		sess.sentences, sess.received = nil, 0
	}
	sess.received += len(sents)
	stored := sents // an empty store adopts the request's slice as is
	if len(sess.sentences) > 0 {
		stored = append(sess.sentences, sents...)
	}
	if over := len(stored) - maxSent; over > 0 {
		n := copy(stored, stored[over:])
		clear(stored[n:])
		stored = stored[:n]
	}
	sess.sentences = stored
}

// forwardState bundles the pooled per-request inference buffers: the
// forward-pass scratch, the per-stage instrumentation accumulator, and
// the trace-event buffer the instrumented pass records into.
type forwardState struct {
	f   memnn.Forward
	ins memnn.Instrumentation
	ev  trace.Events
}

// Server serves QA requests against one trained model.
type Server struct {
	model  *memnn.Model
	corpus *memnn.Corpus
	// SkipThreshold applies zero-skipping to every answer; 0 = exact.
	SkipThreshold float32
	// ExitPolicy arms the confidence-gated early exit on every answer;
	// the zero value runs every hop (see memnn.ExitPolicy). Set before
	// the server starts handling requests.
	ExitPolicy memnn.ExitPolicy
	// AccessLog, when non-nil, receives one structured line per request:
	// request_id, method, path, session, status, duration.
	AccessLog *log.Logger
	// PprofLabels, when true, wraps request handling in pprof.Do with
	// handler/session labels so CPU profiles attribute samples to
	// handlers. Off by default: label propagation costs a goroutine
	// label swap per request.
	PprofLabels bool

	mu       sync.RWMutex        // guards the sessions map (not the sessions)
	sessions map[string]*session // guarded by mu

	// forwards recycles forward-pass buffers across answer requests:
	// the inference core of a steady-state request allocates nothing
	// (see memnn.Forward); concurrent requests each draw their own.
	forwards sync.Pool

	// Micro-batching (see EnableBatching / batch.go). batch is nil when
	// batching is off; items pools answerItem wrappers; bstate is the
	// dispatcher-owned flush scratch.
	batch  *batcher.Batcher[*answerItem]
	items  sync.Pool
	bstate batchState

	// parPool holds the persistent workers behind EnableParallelism;
	// nil when inference is serial. Owned by the server, closed by Close.
	parPool *tensor.Pool

	// rec is the flight recorder behind /v1/traces; nil when tracing
	// is off (see EnableTracing in trace.go).
	rec *trace.Recorder

	met    *metrics
	reqSeq atomic.Uint64
}

// New builds a Server around a trained model and its corpus metadata.
func New(model *memnn.Model, corpus *memnn.Corpus) (*Server, error) {
	if model == nil || corpus == nil {
		return nil, fmt.Errorf("server: nil model or corpus")
	}
	s := &Server{
		model:    model,
		corpus:   corpus,
		sessions: make(map[string]*session),
	}
	s.met = newMetrics(model.Cfg.Hops, func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(len(s.sessions))
	})
	return s, nil
}

// Metrics returns the server's metric registry, for embedding into
// other HTTP surfaces or reading in tests.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Handler returns the HTTP handler tree, wrapped in the metrics and
// access-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/story", s.handleStory)
	mux.HandleFunc("/v1/answer", s.handleAnswer)
	mux.HandleFunc("/v1/healthz", s.handleHealth)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/statz", s.handleStatz)
	mux.HandleFunc("/v1/traces", s.handleTraceIndex)
	mux.HandleFunc("/v1/traces/{id}", s.handleTraceGet)
	return s.instrument(mux)
}

// statusWriter captures the response status for metrics and logging,
// and whether the reply has started (a recovered panic can still send a
// 500 only if it has not).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status, w.wrote = code, true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// serve runs the handler tree for one request and is the backstop
// behind the request-boundary audit: the inference core panics on an
// empty story, a story beyond MaxSent and a stale embedding cache, and
// although no JSON request can reach those (the handlers answer 409,
// trim, and re-embed under the session lock; see boundary_test.go), a
// panic that does escape a handler must cost one request, not the
// process. It is logged with its stack, noted on the request trace, and
// answered with a 500 when the reply has not started; the middleware
// then accounts for the request as for any other error.
// http.ErrAbortHandler keeps its net/http meaning and is re-raised.
func (s *Server) serve(next http.Handler, w *statusWriter, r *http.Request, tr *trace.Trace) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
		tr.AnnotateStr(tr.Root(), "panic", fmt.Sprint(p))
		if w.wrote {
			w.status = http.StatusInternalServerError // too late to say so
			return
		}
		httpError(w, http.StatusInternalServerError, "internal error")
	}()
	next.ServeHTTP(w, r)
}

// instrument wraps the mux with request-ID tagging, request-scoped
// tracing, in-flight and per-handler accounting, optional pprof
// labels, panic recovery (serve), and the optional access log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", id)
		label := handlerLabel(r.URL.Path)
		sess := r.Header.Get("X-Session")
		if sess == "" {
			sess = "default"
		}

		// Start the request trace before the handler runs so every
		// reply — including 429/503/504 error paths that never reach a
		// handler body — carries X-Trace-ID and traceparent headers.
		var tr *trace.Trace
		if s.rec != nil && traced(label) {
			//mnnfast:allow poolescape ownership transfers to the recorder: Commit below returns tr to the pool on every path
			tr = s.rec.StartTrace(label, id)
			if hi, lo, parent, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				tr.AdoptRemote(hi, lo, parent)
			}
			root := tr.Start(label, 0)
			tr.AnnotateStr(root, "kernel_tier", tensor.KernelTier())
			w.Header().Set("X-Trace-ID", tr.ID())
			w.Header().Set("traceparent", tr.Traceparent(root))
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))
		}

		s.met.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		if s.PprofLabels {
			pprof.Do(r.Context(), pprof.Labels("handler", label, "session", sess), func(ctx context.Context) {
				s.serve(next, sw, r.WithContext(ctx), tr)
			})
		} else {
			s.serve(next, sw, r, tr)
		}
		d := time.Since(t0)
		s.met.inflight.Add(-1)
		s.met.requests[label].Inc()
		if tr != nil {
			root := tr.Root()
			if sw.status >= 400 {
				tr.SetError()
				tr.Annotate(root, "status", int64(sw.status))
			}
			tr.Finish(root)
			// The exemplar points the latency histogram's slow tail at
			// a concrete trace ID.
			s.met.durations[label].ObserveNSExemplar(d.Nanoseconds(), tr.ID64())
			s.rec.Commit(tr)
		} else {
			s.met.durations[label].Observe(d)
		}
		if sw.status >= 400 {
			s.met.errors.Inc()
		}
		if s.AccessLog != nil {
			s.AccessLog.Printf("request_id=%s method=%s path=%s session=%s status=%d dur_us=%d",
				id, r.Method, r.URL.Path, sess, sw.status, d.Microseconds())
		}
	})
}

// StoryRequest is the body of POST /v1/story.
type StoryRequest struct {
	Sentences []string `json:"sentences"`
	Reset     bool     `json:"reset,omitempty"`
}

// StoryResponse reports the session's story size.
type StoryResponse struct {
	Sentences int `json:"sentences"`
}

// AnswerRequest is the body of POST /v1/answer.
type AnswerRequest struct {
	Question string `json:"question"`
}

// AnswerResponse carries the prediction.
type AnswerResponse struct {
	Answer    string `json:"answer"`
	Index     int    `json:"index"`
	Sentences int    `json:"sentences"`
}

// HealthResponse describes the loaded model.
type HealthResponse struct {
	Status  string `json:"status"`
	Vocab   int    `json:"vocab"`
	Answers int    `json:"answers"`
	Hops    int    `json:"hops"`
	Dim     int    `json:"dim"`
	MaxSent int    `json:"max_sentences"`
}

func (s *Server) session(r *http.Request) *session {
	key := r.Header.Get("X-Session")
	if key == "" {
		key = "default"
	}
	s.mu.RLock()
	st := s.sessions[key]
	s.mu.RUnlock()
	if st != nil {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st = s.sessions[key]; st == nil {
		st = &session{}
		s.sessions[key] = st
	}
	return st
}

// Request bodies are capped at bodyBaseBytes plus bodySentenceBytes per
// sentence of the model's MaxSent: room for the longest story the model
// keeps, at several times the length of any sentence the bAbI vocabulary
// can spell, and nothing a client can grow without bound.
const (
	bodyBaseBytes     = 64 << 10
	bodySentenceBytes = 256
)

// decodeBody decodes a capped JSON request body into v. On failure it
// has answered — 413 over the cap, 400 for anything else — and returns
// false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := int64(bodyBaseBytes + s.model.Cfg.MaxSent*bodySentenceBytes)
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", limit)
	case err != nil:
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return err == nil
}

func (s *Server) handleStory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req StoryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Encode every sentence against the frozen vocabulary before
	// touching the session.
	sents, bad, err := encodeStory(s.corpus.Vocab, req.Sentences)
	switch {
	case errors.Is(err, errEmptySentence):
		httpError(w, http.StatusBadRequest, "sentence %d is empty", bad)
		return
	case err != nil:
		httpError(w, http.StatusUnprocessableEntity, "sentence %d: %v", bad, err)
		return
	}
	sess := s.session(r)
	sess.mu.Lock()
	sess.keep(sents, req.Reset, s.model.Cfg.MaxSent)
	sess.cacheValid = false
	n := sess.received
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, StoryResponse{Sentences: n})
}

// errEmptySentence is encodeStory's verdict on a sentence with no words.
var errEmptySentence = errors.New("empty sentence")

// encodeStory tokenizes and encodes a story request's sentences in one
// pass (vocab.EncodeText) into one ID arena sized up front, and returns
// them as sub-slices of it: two allocations whatever the sentence count.
// On failure it returns the index of the first bad sentence and why:
// errEmptySentence, or the vocabulary's unknown-word error.
func encodeStory(v *vocab.Vocabulary, raw []string) (sents [][]int, bad int, err error) {
	n := 0
	for _, r := range raw {
		n += vocab.CountTokens(r)
	}
	arena := make([]int, 0, n)
	sents = make([][]int, len(raw))
	for i, r := range raw {
		start := len(arena)
		if arena, err = v.EncodeText(arena, r); err != nil {
			return nil, i, err
		}
		if len(arena) == start {
			return nil, i, errEmptySentence
		}
		sents[i] = arena[start:len(arena):len(arena)]
	}
	return sents, 0, nil
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AnswerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tr := traceFrom(r.Context())
	t0 := time.Now()
	vs := tr.Start("vectorize", tr.Root())
	qWords := vocab.Tokenize(req.Question)
	if len(qWords) == 0 {
		httpError(w, http.StatusBadRequest, "empty question")
		return
	}
	qIDs, err := s.corpus.Vocab.EncodeStrict(qWords)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "memnn: question: %v", err)
		return
	}
	tr.Finish(vs)
	s.met.stageVectorize.Observe(time.Since(t0))
	sess := s.session(r)

	// Batched path: hand the question to the micro-batching scheduler,
	// which coalesces concurrent answers into one batched inference call
	// (bit-identical results; see batch.go).
	if s.batch != nil {
		s.answerBatched(w, r, sess, qIDs)
		return
	}

	idx, n, err := s.answer(sess, qIDs, tr)
	switch {
	case errors.Is(err, errNoStory):
		httpError(w, http.StatusConflict, "%v", err)
	case err != nil:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeJSON(w, http.StatusOK, AnswerResponse{
			Answer: s.corpus.AnswerWord(idx), Index: idx, Sentences: n,
		})
	}
}

// acquire locks sess for answering with its embedding cache valid. The
// fast path finds it valid under the read lock, so concurrent questions
// on this session (and any traffic on other sessions) proceed in
// parallel; the slow path — the first answer after a story mutation —
// takes the write lock, (re)embeds, and keeps it. It returns with the
// lock held, error or not (wlocked says which), for the caller to
// sess.release; only a panic out of embedSession unlocks here, so that
// once serve has recovered it the session is not left wedged. A valid
// cache is a hit, an embed is a miss, an empty story (errNoStory) is
// neither; embedNS is the time spent embedding.
//
//mnnfast:hotpath allow=closure the deferred unlock-on-panic guard is open-coded on the stack, never built on the heap
func (s *Server) acquire(sess *session, tr *trace.Trace) (wlocked, hit bool, embedNS int64, err error) {
	sess.mu.RLock()
	if sess.cacheValid {
		s.met.cacheHits.Inc()
		return false, true, 0, nil
	}
	sess.mu.RUnlock()

	sess.mu.Lock()
	held := false
	defer func() {
		if !held {
			sess.mu.Unlock()
		}
	}()
	switch {
	case len(sess.sentences) == 0:
		err = errNoStory
	case sess.cacheValid:
		hit = true
		s.met.cacheHits.Inc() // another goroutine embedded it meanwhile
	default:
		e0 := trace.Now()
		s.embedSession(sess, tr)
		embedNS = trace.Now() - e0
		s.met.cacheMisses.Inc()
	}
	held = true
	return true, hit, embedNS, err
}

// release drops the lock acquire returned.
func (sess *session) release(wlocked bool) {
	if wlocked {
		sess.mu.Unlock()
	} else {
		sess.mu.RUnlock()
	}
}

// answer is the unbatched /v1/answer tail: acquire the session, predict
// over its cached embedding, release. The release is deferred, so a
// panic recovered by serve does not leave the session locked.
//
//mnnfast:locked sess.mu acquire returns with it held
func (s *Server) answer(sess *session, qIDs []int, tr *trace.Trace) (idx, n int, err error) {
	wlocked, hit, _, err := s.acquire(sess, tr)
	defer sess.release(wlocked)
	if err != nil {
		return 0, 0, err
	}
	var hv int64
	if hit {
		hv = 1
	}
	tr.Annotate(tr.Root(), "cache_hit", hv)
	idx = s.predict(memnn.Example{Sentences: sess.sentences, Question: qIDs}, &sess.emb, tr)
	return idx, sess.received, nil
}

// embedSession embeds the session's stored word IDs into its cache.
// Caller holds the session write lock. The embedding time lands in the
// embed-stage histogram, so cache effectiveness is directly visible as
// vanished embed time on the hit path.
//
// This is the cache-fill miss path: it runs once per story change (and
// the IVF build beside it allocates), so it is a coldpath boundary — the
// zero-allocation contract covers the hit path that serves from the
// embedded cache.
//
//mnnfast:coldpath
//mnnfast:locked sess.mu
func (s *Server) embedSession(sess *session, tr *trace.Trace) {
	sp := tr.Start("embed-story", tr.Root())
	t0 := time.Now()
	s.model.EmbedStoryInto(memnn.Example{Sentences: sess.sentences}, &sess.emb)
	sess.cacheValid = true
	s.met.stageEmbed.Observe(time.Since(t0))
	tr.Annotate(sp, "sentences", int64(len(sess.sentences)))
	tr.Finish(sp)

	// Topk mode: the IVF index rides beside the embedding cache — built
	// once per story change, reused by every answer until the next
	// mutation. BuildStoryIndex is a no-op (and drops any stale index)
	// when topk is off or the story is below the exact-fallback floor.
	if s.model.TopK().Enabled {
		ib := tr.Start("index-build", tr.Root())
		t1 := time.Now()
		built := s.model.BuildStoryIndex(&sess.emb)
		if built {
			s.met.stageIndexBuild.Observe(time.Since(t1))
		}
		var bv int64
		if built {
			bv = 1
		}
		tr.Annotate(ib, "built", bv)
		tr.Finish(ib)
	}
}

// predict runs the model over one vectorized example with pooled
// forward-pass buffers and drains the per-stage instrumentation into
// the metrics. es, when non-nil, supplies the cached embedded story;
// tr, when non-nil, receives an "infer" span with the per-hop event
// tree recorded by the instrumented pass.
//
//mnnfast:hotpath
func (s *Server) predict(ex memnn.Example, es *memnn.EmbeddedStory, tr *trace.Trace) int {
	st, _ := s.forwards.Get().(*forwardState)
	if st == nil {
		st = new(forwardState)
	}
	st.ins.Reset()
	var sp trace.SpanID
	if tr != nil {
		st.ev.Reset()
		st.ins.Ev = &st.ev
		sp = tr.Start("infer", tr.Root())
	}
	idx := s.model.PredictGated(ex, s.SkipThreshold, s.ExitPolicy, &st.f, es, &st.ins)
	s.met.observeInference(&st.ins)
	if s.ExitPolicy.Enabled() {
		s.met.observeExit(st.f.ExitHop)
	}
	if tr != nil {
		tr.AddEvents(sp, &st.ev)
		tr.Annotate(sp, "skipped", st.ins.SkippedRows)
		tr.Annotate(sp, "rows", st.ins.TotalRows)
		if st.ins.ProbedRows > 0 {
			tr.Annotate(sp, "topk_probed", st.ins.ProbedRows)
			tr.Annotate(sp, "topk_kept", st.ins.CandRows)
		}
		if s.ExitPolicy.Enabled() {
			tr.Annotate(sp, "exit_hop", int64(st.f.ExitHop))
		}
		tr.Finish(sp)
		st.ins.Ev = nil
	}
	s.forwards.Put(st)
	return idx
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Vocab:   s.corpus.Vocab.Size(),
		Answers: len(s.corpus.Answers),
		Hops:    s.model.Cfg.Hops,
		Dim:     s.model.Cfg.Dim,
		MaxSent: s.model.Cfg.MaxSent,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// A canceled or expired request must not burn a metrics collection
	// pass (GaugeFuncs take server locks); fail it like any other
	// request the server could not serve in time.
	if err := r.Context().Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, "request context ended: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if err := r.Context().Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, "request context ended: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.met.reg.Snapshot())
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
