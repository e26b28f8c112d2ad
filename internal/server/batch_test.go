package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnnfast/internal/obs"
)

// newBatchedServer wraps the shared trained model in a fresh Server
// (sessions and metrics isolated per test) with batching enabled.
func newBatchedServer(t testing.TB, opt BatchOptions) *Server {
	t.Helper()
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableBatching(opt)
	return s
}

func scrape(t testing.TB, s *Server) obs.Scrape {
	t.Helper()
	var buf bytes.Buffer
	if err := s.met.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// wedgeDispatcher holds s's batch dispatcher so a test can choose what
// the next flush takes. It sends one answer on a story-less plug session
// whose lock it holds, and returns once the dispatcher has collected
// that answer alone and blocked on the lock. Answers sent afterwards
// queue behind the plug. release unlocks the plug session and waits for
// the plug's answer, a 409: the plug flush runs no inference.
func wedgeDispatcher(t *testing.T, s *Server, h http.Handler) (release func()) {
	t.Helper()
	collected := scrape(t, s).Value("mnnfast_batch_queue_wait_seconds_count") + 1
	plug := s.session(answerReq("plug", ""))
	plug.mu.Lock()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, answerReq("plug", "where is john?"))
	}()
	waitForCond(t, "plug answer collected", func() bool {
		return scrape(t, s).Value("mnnfast_batch_queue_wait_seconds_count") == collected
	})
	return func() {
		plug.mu.Unlock()
		<-done
		if rec.Code != http.StatusConflict {
			t.Errorf("plug answer: %d %s, want 409", rec.Code, rec.Body.String())
		}
	}
}

// answerReq builds a direct /v1/answer request (no network) so tests
// control the context precisely.
func answerReq(session, question string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/answer",
		strings.NewReader(`{"question":"`+question+`"}`))
	req.Header.Set("X-Session", session)
	return req
}

// TestBatchedEquivalence is the server-level equivalence property: a
// batched server under concurrent load returns byte-identical response
// bodies to an unbatched server answering the same questions serially.
// It also pins that concurrent answers coalesce: each round wedges the
// dispatcher, queues one question per client behind it, and releases
// it, and the flushes must then be exactly the plug alone and two full
// batches of 8.
func TestBatchedEquivalence(t *testing.T) {
	base := testServer(t)
	plain, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	batched := newBatchedServer(t, BatchOptions{MaxBatch: 8})
	defer batched.Close()

	stories := map[string][]string{
		"sA": {"john went to the kitchen", "mary went to the garden"},
		"sB": {"john went to the garden"},
		"sC": {"mary went to the kitchen", "john went to the garden", "mary went to the garden"},
	}
	questions := []string{"where is john?", "where is mary?"}
	sessions := []string{"sA", "sB", "sC"}

	seed := func(s *Server) {
		h := s.Handler()
		for sess, sents := range stories {
			body, _ := json.Marshal(StoryRequest{Sentences: sents})
			req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
			req.Header.Set("X-Session", sess)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("seeding %s: %d %s", sess, rec.Code, rec.Body.String())
			}
		}
	}
	seed(plain)
	seed(batched)

	// Serial baseline from the unbatched server.
	plainH := plain.Handler()
	baseline := make(map[string]string)
	for _, sess := range sessions {
		for _, q := range questions {
			rec := httptest.NewRecorder()
			plainH.ServeHTTP(rec, answerReq(sess, q))
			if rec.Code != http.StatusOK {
				t.Fatalf("baseline %s/%q: %d %s", sess, q, rec.Code, rec.Body.String())
			}
			baseline[sess+"|"+q] = rec.Body.String()
		}
	}

	// Batched traffic: 16 clients × 25 rounds, seeded random (session,
	// question) picks, one request per client per round.
	ts := httptest.NewServer(batched.Handler())
	defer ts.Close()
	batchedH := batched.Handler()
	const clients, rounds = 16, 25
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(9000 + c)))
	}
	var mismatches atomic.Int64
	ask := func(c int) {
		rng := rngs[c]
		sess := sessions[rng.Intn(len(sessions))]
		q := questions[rng.Intn(len(questions))]
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/answer",
			strings.NewReader(`{"question":"`+q+`"}`))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("X-Session", sess)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s/%q: status %d: %s", sess, q, resp.StatusCode, buf.String())
			return
		}
		if got, want := buf.String(), baseline[sess+"|"+q]; got != want {
			mismatches.Add(1)
			t.Errorf("%s/%q: batched body %q != unbatched %q", sess, q, got, want)
		}
	}
	for round := 0; round < rounds; round++ {
		before := scrape(t, batched)
		release := wedgeDispatcher(t, batched, batchedH)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ask(c)
			}(c)
		}
		waitForCond(t, "clients queued behind the plug", func() bool { return batched.batch.QueueLen() == clients })
		release()
		wg.Wait()
		// Three flushes of 17 answers, none above MaxBatch, the first
		// of them the plug alone: exactly [1 8 8].
		d := scrape(t, batched).Sub(before)
		if n, sum := d.Value("mnnfast_batch_size_count"), d.Value("mnnfast_batch_size_sum"); n != 3 || sum != clients+1 {
			t.Fatalf("round %d: %v flushes of %v answers, want 3 flushes [1 8 8] of %d", round, n, sum, clients+1)
		}
	}
	if mismatches.Load() > 0 {
		t.Fatalf("%d batched responses differed from the unbatched baseline", mismatches.Load())
	}

	sc := scrape(t, batched)
	if got := sc.Value("mnnfast_batch_size_sum"); got != rounds*(clients+1) {
		t.Errorf("batch size sum = %v, want %d (every answer and plug through one flush)", got, rounds*(clients+1))
	}
	if shed := sc.Value("mnnfast_batch_shed_total"); shed != 0 {
		t.Errorf("shed %v requests with default queue depth, want 0", shed)
	}
}

// TestBatchedQueueFullSheds429 drives the admission-control path: with
// the dispatcher wedged (the test holds the session write lock it
// needs) and the queue full, the next answer is rejected immediately
// with 429 and a Retry-After hint.
func TestBatchedQueueFullSheds429(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 1, QueueDepth: 2})
	defer s.Close()
	h := s.Handler()

	body, _ := json.Marshal(StoryRequest{Sentences: []string{"john went to the kitchen"}})
	req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
	req.Header.Set("X-Session", "q")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("story: %d %s", rec.Code, rec.Body.String())
	}

	// Wedge the dispatcher: it needs this session's lock to embed.
	sess := s.session(answerReq("q", ""))
	sess.mu.Lock()

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 3)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.ServeHTTP(recs[i], answerReq("q", "where is john?"))
		}(i)
	}
	// One request is collected (dispatcher now blocked on the session
	// lock); the other two fill the depth-2 queue.
	waitForCond(t, "queue full", func() bool { return s.batch.QueueLen() == 2 })

	over := httptest.NewRecorder()
	h.ServeHTTP(over, answerReq("q", "where is john?"))
	if over.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d %s, want 429", over.Code, over.Body.String())
	}
	if ra := over.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	sess.mu.Unlock()
	wg.Wait()
	for i, r := range recs {
		if r.Code != http.StatusOK {
			t.Errorf("queued request %d: %d %s, want 200 after unwedge", i, r.Code, r.Body.String())
		}
	}
	sc := scrape(t, s)
	if shed := sc.Value("mnnfast_batch_shed_total"); shed != 1 {
		t.Errorf("shed counter = %v, want 1", shed)
	}
}

// TestBatchedDeadline504 checks deadline propagation: a request whose
// context ends while it waits in the queue gets 504, never occupies a
// batch slot, and is counted in the expired counter.
func TestBatchedDeadline504(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 1, QueueDepth: 4})
	defer s.Close()
	h := s.Handler()

	body, _ := json.Marshal(StoryRequest{Sentences: []string{"mary went to the garden"}})
	req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
	req.Header.Set("X-Session", "d")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("story: %d", rec.Code)
	}

	sess := s.session(answerReq("d", ""))
	sess.mu.Lock() // wedge the dispatcher on the first answer

	first := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, answerReq("d", "where is mary?"))
	}()
	// Wait until the first answer is past the batcher's expiry filter
	// (its queue wait has been observed) — from then on it owns the
	// wedged batch and anything else queues behind it.
	waitForCond(t, "first answer collected", func() bool {
		return scrape(t, s).Value("mnnfast_batch_queue_wait_seconds_count") == 1
	})

	// Second answer queues behind the wedged batch; cancel it there.
	ctx, cancel := context.WithCancel(context.Background())
	doomed := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(doomed, answerReq("d", "where is mary?").WithContext(ctx))
	}()
	waitForCond(t, "second answer queued", func() bool { return s.batch.QueueLen() == 1 })
	cancel()
	<-done
	if doomed.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled-in-queue request: %d %s, want 504", doomed.Code, doomed.Body.String())
	}

	sess.mu.Unlock()
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s, want 200", first.Code, first.Body.String())
	}

	sc := scrape(t, s)
	if exp := sc.Value("mnnfast_batch_expired_total"); exp != 1 {
		t.Errorf("expired counter = %v, want 1", exp)
	}
	// The expired request never took a batch slot: only the first
	// answer flowed through a flush.
	if sum := sc.Value("mnnfast_batch_size_sum"); sum != 1 {
		t.Errorf("batch size sum = %v, want 1 (expired request must not occupy a slot)", sum)
	}
}

// TestBatchedCloseDrains exercises graceful shutdown: Close stops
// admission (503) but queued answers still complete.
func TestBatchedCloseDrains(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 1, QueueDepth: 4})
	h := s.Handler()

	body, _ := json.Marshal(StoryRequest{Sentences: []string{"john went to the garden"}})
	req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
	req.Header.Set("X-Session", "c")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("story: %d", rec.Code)
	}

	sess := s.session(answerReq("c", ""))
	sess.mu.Lock() // hold a batch in flight across Close

	recs := []*httptest.ResponseRecorder{httptest.NewRecorder(), httptest.NewRecorder()}
	var wg sync.WaitGroup
	for _, r := range recs {
		wg.Add(1)
		go func(r *httptest.ResponseRecorder) {
			defer wg.Done()
			h.ServeHTTP(r, answerReq("c", "where is john?"))
		}(r)
	}
	waitForCond(t, "one in flight, one queued", func() bool { return s.batch.QueueLen() == 1 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was wedged in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// Admission is already off while the drain waits.
	waitForCond(t, "admission closed", func() bool {
		late := httptest.NewRecorder()
		h.ServeHTTP(late, answerReq("c", "where is john?"))
		return late.Code == http.StatusServiceUnavailable
	})

	sess.mu.Unlock()
	<-closed
	wg.Wait()
	for i, r := range recs {
		if r.Code != http.StatusOK {
			t.Errorf("in-flight request %d: %d %s, want 200 (drained)", i, r.Code, r.Body.String())
		}
	}
	s.Close() // idempotent
}

// TestBatchedNoStory409 keeps the unbatched path's contract: answering
// a story-less session through the batcher still yields 409, and a
// question with out-of-vocabulary words still yields 422.
func TestBatchedNoStory409(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 4})
	defer s.Close()
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, answerReq("empty", "where is john?"))
	if rec.Code != http.StatusConflict {
		t.Errorf("no-story answer: %d %s, want 409", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, answerReq("empty", "where is zorblax?"))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("OOV question: %d %s, want 422", rec.Code, rec.Body.String())
	}
}

// TestBatchedStress hammers a batched server from many goroutines —
// 8 clients sharing one session plus 8 on private sessions, with
// periodic story mutations to force cache invalidation — and runs
// under -race in CI.
func TestBatchedStress(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 8, QueueDepth: 64})
	defer s.Close()
	h := s.Handler()

	seed := func(sess string) {
		body, _ := json.Marshal(StoryRequest{Sentences: []string{
			"john went to the kitchen", "mary went to the garden"}})
		req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
		req.Header.Set("X-Session", sess)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %s: %d", sess, rec.Code)
		}
	}
	sessOf := func(g int) string {
		if g < 8 {
			return "shared"
		}
		return "solo-" + string(rune('a'+g-8))
	}
	seed("shared")
	for g := 8; g < 16; g++ {
		seed(sessOf(g))
	}

	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := sessOf(g)
			for i := 0; i < perG; i++ {
				if i%10 == 9 {
					seed(sess) // invalidate the embedding cache mid-stream
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, answerReq(sess, "where is john?"))
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d answer %d: %d %s", g, i, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunAnswerBatchAllocs asserts the steady-state batched inference
// path — session dedup, lock acquisition, batched predict, metric
// observation — allocates nothing outside the flush boundary, matching
// the unbatched predict path's zero-alloc guarantee.
func TestRunAnswerBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are not meaningful")
	}
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.session(answerReq("alloc", ""))
	sess.mu.Lock()
	sents, _, err := encodeStory(s.corpus.Vocab, []string{"john went to the kitchen", "mary went to the garden"})
	if err != nil {
		sess.mu.Unlock()
		t.Fatal(err)
	}
	sess.keep(sents, true, s.model.Cfg.MaxSent)
	s.embedSession(sess, nil)
	sess.mu.Unlock()

	qJohn, err := s.corpus.Vocab.EncodeStrict([]string{"where", "is", "john"})
	if err != nil {
		t.Fatal(err)
	}
	qMary, err := s.corpus.Vocab.EncodeStrict([]string{"where", "is", "mary"})
	if err != nil {
		t.Fatal(err)
	}
	items := []*answerItem{
		{sess: sess, qIDs: qJohn},
		{sess: sess, qIDs: qMary},
		{sess: sess, qIDs: qJohn},
		{sess: sess, qIDs: qMary},
	}
	s.runAnswerBatch(items) // warm the batch scratch at this shape
	allocs := testing.AllocsPerRun(100, func() {
		s.runAnswerBatch(items)
	})
	if allocs != 0 {
		t.Errorf("steady-state batched answer path allocates %v per flush, want 0", allocs)
	}
	for i, it := range items {
		if it.err != nil {
			t.Errorf("item %d: %v", i, it.err)
		}
	}
}

// TestMetricsStatzCanceledContext is the regression test for the
// observability endpoints' missing request-context handling: a request
// whose context has already ended must fail fast with 503 instead of
// running a metrics collection pass.
func TestMetricsStatzCanceledContext(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for _, path := range []string{"/v1/metrics", "/v1/statz"} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with canceled context: %d, want 503", path, rec.Code)
		}

		// A live context still serves the endpoint.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s with live context: %d, want 200", path, rec.Code)
		}
	}
}
