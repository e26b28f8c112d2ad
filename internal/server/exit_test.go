package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/vocab"
)

// gatedFixture picks an exit threshold that splits the test stories'
// questions into both outcomes — some exiting after hop 1, some running
// every hop — so the batches below genuinely mix shed and full-path
// questions. Selection runs the real model on the vectorized pairs.
func gatedFixture(t *testing.T, s *Server, stories map[string][]string, questions []string) memnn.ExitPolicy {
	t.Helper()
	var exs []memnn.Example
	for _, sents := range stories {
		tok := make([][]string, len(sents))
		for i, raw := range sents {
			tok[i] = vocab.Tokenize(raw)
		}
		ex, err := s.corpus.VectorizeStory(babi.Story{Sentences: tok})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range questions {
			qIDs, err := s.corpus.Vocab.EncodeStrict(vocab.Tokenize(q))
			if err != nil {
				t.Fatal(err)
			}
			exs = append(exs, memnn.Example{Sentences: ex.Sentences, Question: qIDs})
		}
	}
	for _, th := range []float32{0.2, 0.4, 0.6, 0.8, 0.95} {
		policy := memnn.ExitPolicy{Metric: memnn.ExitMargin, Threshold: th, MinHops: 1}
		var f memnn.Forward
		shed, full := false, false
		for _, ex := range exs {
			fw := s.model.ApplyGated(ex, s.SkipThreshold, policy, &f, nil, nil)
			if fw.ExitHop < s.model.Cfg.Hops {
				shed = true
			} else {
				full = true
			}
		}
		if shed && full {
			return policy
		}
	}
	t.Fatal("no margin threshold splits the fixture questions into shed and full-path outcomes")
	return memnn.ExitPolicy{}
}

// TestBatchedGatedEquivalence is the batch-shedding acceptance test at
// the server level: a flush mixing early-exit and full-hop questions
// (formed by queueing them behind a wedged dispatcher) must return
// response bodies byte-identical to an unbatched server running the
// same gate — and the exit metrics must show both outcomes.
func TestBatchedGatedEquivalence(t *testing.T) {
	base := testServer(t)
	stories := map[string][]string{
		"gA": {"john went to the kitchen", "mary went to the garden"},
		"gB": {"john went to the garden"},
		"gC": {"mary went to the kitchen", "john went to the garden", "mary went to the garden"},
	}
	questions := []string{"where is john?", "where is mary?"}
	policy := gatedFixture(t, base, stories, questions)

	plain, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	plain.ExitPolicy = policy
	batched, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	batched.ExitPolicy = policy
	batched.EnableBatching(BatchOptions{})
	defer batched.Close()

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

	plainH := plain.Handler()
	baseline := make(map[string]string)
	for sess := range stories {
		for _, q := range questions {
			rec := httptest.NewRecorder()
			plainH.ServeHTTP(rec, answerReq(sess, q))
			if rec.Code != http.StatusOK {
				t.Fatalf("baseline %s/%q: %d %s", sess, q, rec.Code, rec.Body.String())
			}
			baseline[sess+"|"+q] = rec.Body.String()
		}
	}

	// Six concurrent answers — one per (session, question) pair — queue
	// behind a wedged dispatcher, so its next flush takes all six.
	h := batched.Handler()
	release := wedgeDispatcher(t, batched, h)
	type result struct {
		key  string
		code int
		body string
	}
	results := make(chan result, 6)
	var wg sync.WaitGroup
	for sess := range stories {
		for _, q := range questions {
			wg.Add(1)
			go func(sess, q string) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, answerReq(sess, q))
				results <- result{sess + "|" + q, rec.Code, rec.Body.String()}
			}(sess, q)
		}
	}
	waitForCond(t, "six answers queued behind the plug", func() bool { return batched.batch.QueueLen() == 6 })
	release()
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.key, r.code, r.body)
		}
		if r.body != baseline[r.key] {
			t.Errorf("%s: batched gated body %q != unbatched gated %q", r.key, r.body, baseline[r.key])
		}
	}

	sc := scrape(t, batched)
	if n, sum := sc.Value("mnnfast_batch_size_count"), sc.Value("mnnfast_batch_size_sum"); n != 2 || sum != 7 {
		t.Errorf("%v flushes of %v answers, want 2: the plug, then all six in one", n, sum)
	}
	if got := sc.Value("mnnfast_exit_hop_count"); got != 6 {
		t.Errorf("exit-hop observations = %v, want 6 (one per gated answer)", got)
	}
	var exits float64
	for h := 1; h <= base.model.Cfg.Hops; h++ {
		exits += sc.Value(fmt.Sprintf("mnnfast_early_exits_total{hop=%q}", strconv.Itoa(h)))
	}
	if exits < 1 {
		t.Errorf("early exits = %v, want >= 1 (the fixture guarantees a mixed flush)", exits)
	}
	if got := sc.Value("mnnfast_exit_hop_sum"); got <= exits || got >= 6*float64(base.model.Cfg.Hops) {
		t.Errorf("exit-hop sum = %v with %v early exits: a mixed flush must land strictly between all-exit and no-exit", got, exits)
	}
}

// TestBatchedGatedAbandoned504 extends the deadline test to the gated
// path: an answer whose context ends while queued behind a wedged gated
// flush still gets 504, is never recycled, and the answers that do land
// stay byte-identical to the unbatched gated baseline. Runs under -race
// in CI, which is what "abandoned items stay race-free" means here.
func TestBatchedGatedAbandoned504(t *testing.T) {
	base := testServer(t)
	policy := memnn.ExitPolicy{Metric: memnn.ExitMargin, Threshold: 0.6, MinHops: 1}

	plain, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	plain.ExitPolicy = policy
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	s.ExitPolicy = policy
	s.EnableBatching(BatchOptions{MaxBatch: 1, QueueDepth: 4})
	defer s.Close()
	h := s.Handler()

	story := []string{"mary went to the garden", "john went to the kitchen"}
	for _, srv := range []*Server{plain, s} {
		body, _ := json.Marshal(StoryRequest{Sentences: story})
		req := httptest.NewRequest(http.MethodPost, "/v1/story", bytes.NewReader(body))
		req.Header.Set("X-Session", "g504")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("story: %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, answerReq("g504", "where is mary?"))
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline: %d %s", rec.Code, rec.Body.String())
	}
	want := rec.Body.String()

	sess := s.session(answerReq("g504", ""))
	sess.mu.Lock() // wedge the dispatcher on the first answer

	first := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, answerReq("g504", "where is mary?"))
	}()
	waitForCond(t, "first answer collected", func() bool {
		return scrape(t, s).Value("mnnfast_batch_queue_wait_seconds_count") == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	doomed := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(doomed, answerReq("g504", "where is mary?").WithContext(ctx))
	}()
	waitForCond(t, "second answer queued", func() bool { return s.batch.QueueLen() == 1 })
	cancel()
	<-done
	if doomed.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled-in-queue gated request: %d %s, want 504", doomed.Code, doomed.Body.String())
	}

	sess.mu.Unlock()
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("first gated request: %d %s, want 200", first.Code, first.Body.String())
	}
	if first.Body.String() != want {
		t.Errorf("gated batched body %q != unbatched gated %q", first.Body.String(), want)
	}
}
