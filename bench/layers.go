package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mnnfast/internal/babi"
	"mnnfast/internal/batcher"
	"mnnfast/internal/memnn"
	"mnnfast/internal/obs"
	"mnnfast/internal/server"
	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/vocab"
)

// Every call the benchmark makes into a layer's own entry points is in
// this file: the reference answers the end-to-end check compares
// against, and the probes behind the per-layer metrics. A refactor of
// memnn/sparse/tensor/batcher entry points is a one-file follow-up here.

// embed vectorizes and embeds a tokenized story exactly as the server's
// embedSession does. The result carries no IVF index, so PredictGated on
// it runs exact attention whatever Model.TopK says.
func embed(model *memnn.Model, corpus *memnn.Corpus, tokens [][]string, es *memnn.EmbeddedStory) (memnn.Example, error) {
	ex, err := corpus.VectorizeStory(babi.Story{Sentences: tokens})
	if err != nil {
		return ex, err
	}
	model.EmbedStoryInto(ex, es)
	return ex, nil
}

func encodeQuestions(corpus *memnn.Corpus, questions []string) ([][]int, error) {
	out := make([][]int, len(questions))
	for i, q := range questions {
		ids, err := corpus.Vocab.EncodeStrict(vocab.Tokenize(q))
		if err != nil {
			return nil, err
		}
		out[i] = ids
	}
	return out, nil
}

// referenceAnswers replays the story ops st issued and returns, for each
// recorded answer, what exact attention answers on the same vectorized
// story and question — Model.Predict's answer, computed once per story
// version instead of re-embedding the story per question.
func referenceAnswers(model *memnn.Model, corpus *memnn.Corpus, st *stream, got []answered) []int {
	need := map[int32]bool{}
	for _, g := range got {
		need[g.Version] = true
	}
	qIDs, err := encodeQuestions(corpus, questions)
	if err != nil {
		panic(err) // the server accepted these questions
	}
	byVersion := map[int32][]int{}
	var tokens [][]string
	var es memnn.EmbeddedStory
	var f memnn.Forward
	st.replay(func(v int, o storyOp, sents []string) {
		if o.Reset {
			tokens = tokens[:0]
		}
		for _, s := range sents {
			tokens = append(tokens, vocab.Tokenize(s))
		}
		if !need[int32(v)] {
			return
		}
		ex, err := embed(model, corpus, tokens, &es)
		if err != nil {
			panic(err) // the server accepted this story
		}
		ans := make([]int, len(qIDs))
		for q := range qIDs {
			ex.Question = qIDs[q]
			ans[q] = model.PredictGated(ex, 0, memnn.ExitPolicy{}, &f, &es, nil)
		}
		byVersion[int32(v)] = ans
	})
	want := make([]int, len(got))
	for i, g := range got {
		want[i] = byVersion[g.Version][g.Question]
	}
	return want
}

// scrape reads the server's /v1/metrics.
func scrape(url string) (obs.Scrape, error) {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// prober times calls into a layer.
type prober struct{ minCalls int }

// time returns the median duration of one fn call in µs, over minCalls
// samples (a tenth of that for calls over 10 ms). Calls under 20 µs are
// timed in groups so the clock reads do not dominate. prep, when
// non-nil, runs untimed before every call, which is then timed alone.
func (p prober) time(prep, fn func()) float64 {
	if prep != nil {
		prep()
	}
	fn() // warm caches and pools
	if prep != nil {
		prep()
	}
	t := time.Now()
	fn()
	one := time.Since(t)
	group, n := 1, p.minCalls
	if prep == nil && one < 20*time.Microsecond {
		group = int(20*time.Microsecond/(one+1)) + 1
	}
	if one > 10*time.Millisecond {
		n = max(n/10, 1)
	}
	samples := make([]float64, n)
	for i := range samples {
		if prep != nil {
			prep()
		}
		t := time.Now()
		for j := 0; j < group; j++ {
			fn()
		}
		samples[i] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(group)
	}
	return median(samples)
}

// timeEach is time with GOMAXPROCS concurrent callers, the load shape of
// the end-to-end run: mk builds worker i's call, and the result is the
// median over every worker's calls.
func (p prober) timeEach(mk func(worker int) func()) float64 {
	workers := runtime.GOMAXPROCS(0)
	fns := make([]func(), workers)
	for i := range fns {
		fns[i] = mk(i)
		fns[i]()
	}
	t := time.Now()
	fns[0]()
	n := p.minCalls
	if time.Since(t) > 10*time.Millisecond {
		n = max(n/10, 1)
	}
	samples := make([][]float64, workers)
	var wg sync.WaitGroup
	for i := range fns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				t := time.Now()
				fns[i]()
				samples[i] = append(samples[i], float64(time.Since(t).Nanoseconds())/1e3)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	return median(all)
}

// memWriter is the in-memory http.ResponseWriter of the handler probes.
type memWriter struct {
	h    http.Header
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be served again without
// allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// served returns a call that runs one prebuilt POST through h, and
// panics on a non-200 reply: a probe that times error replies is a bug.
func served(h http.Handler, path, session string, body []byte) func() {
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Session", session)
	w := &memWriter{h: http.Header{}}
	return func() {
		rb.Reset(body)
		req.Body = rb
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			panic(fmt.Sprintf("probe: POST %s on session %s: status %d", path, session, w.code))
		}
	}
}

// probeInputs is what the probes run on: the workload's own stream, at
// the story size its answers see (the midpoint of the churn range).
type probeInputs struct {
	tokens   [][]string // the story, tokenized
	load     op         // the reset POST that installs it
	write    op         // the workload's write: an append on churn, else load
	written  []string   // the sentences write carries
	question op
	asked    string // the question's text
}

func newProbeInputs(cfg config, w workload) probeInputs {
	st := newStream(cfg, w, 0)
	in := probeInputs{write: st.load(), question: ask(0), asked: questions[0]}
	story := st.Last
	if w.Churn {
		for len(story) < (cfg.ChurnBase+cfg.ChurnLimit)/2 {
			in.write = st.story(false, churnAppend)
			story = append(story, st.Last...)
		}
	}
	in.written = st.Last
	in.load = op{Kind: opStory, Body: mustJSON(server.StoryRequest{Sentences: story, Reset: true})}
	for _, s := range story {
		in.tokens = append(in.tokens, vocab.Tokenize(s))
	}
	return in
}

// handlerUS is the median /v1/answer time through srv's handler tree
// with an in-memory recorder, one probe session per concurrent caller,
// each answering from its cached story.
func (p prober) handlerUS(srv *server.Server, in probeInputs) float64 {
	h := srv.Handler()
	return p.timeEach(func(i int) func() {
		session := "probe" + strconv.Itoa(i)
		served(h, "/v1/story", session, in.load.Body)()
		return served(h, "/v1/answer", session, in.question.Body)
	})
}

// probeLayers fills the per-layer metrics that come from timing calls
// into each layer's public functions on the workload's own inputs.
// e is the traced pass's system; its server has tracing on, as served.
func probeLayers(e *env, out map[string]metric) error {
	p := prober{minCalls: e.cfg.MinCalls}
	in := newProbeInputs(e.cfg, e.w)
	model, corpus := e.model, e.corpus
	us := func(name string, v float64) { out[name] = metric{Value: v, Unit: "us"} }
	count := func(name string, v float64) { out[name] = metric{Value: v, Unit: "count"} }

	// server: the handler tree as served, and again without tracing.
	handler := p.handlerUS(e.srv, in)
	us("server.handler_us", handler)
	plain, err := newServer(model, corpus, e.w, false)
	if err != nil {
		return err
	}
	us("trace.overhead_us", handler-p.handlerUS(plain, in))
	plain.Close()

	h := e.srv.Handler()
	us("server.story_handler_us", p.timeEach(func(i int) func() {
		return served(h, "/v1/story", "write"+strconv.Itoa(i), in.write.Body)
	}))
	us("server.json_decode_us", p.time(nil, func() {
		var req server.AnswerRequest
		_ = json.NewDecoder(bytes.NewReader(in.question.Body)).Decode(&req)
	}))
	us("server.story_decode_us", p.time(nil, func() {
		var req server.StoryRequest
		_ = json.NewDecoder(bytes.NewReader(in.write.Body)).Decode(&req)
	}))
	reply := server.AnswerResponse{Answer: "kitchen", Index: 3, Sentences: len(in.tokens)}
	us("server.json_encode_us", p.time(nil, func() { _ = json.NewEncoder(io.Discard).Encode(reply) }))

	// vocab: what handleAnswer and handleStory do to the request text.
	us("vocab.question_encode_us", p.time(nil, func() {
		_, _ = corpus.Vocab.EncodeStrict(vocab.Tokenize(in.asked))
	}))
	us("vocab.story_encode_us", p.time(nil, func() {
		for _, s := range in.written {
			_, _ = corpus.Vocab.EncodeStrict(vocab.Tokenize(s))
		}
	}))

	// batcher: Do with a run function that does nothing, served options.
	b := batcher.New(func([]*int) {}, batcher.Options{})
	us("batcher.do_us", p.timeEach(func(int) func() {
		v := new(int)
		return func() { _ = b.Do(context.Background(), v) }
	}))
	b.Close()

	// memnn: story embedding as embedSession does it, then the cached
	// forward pass in the workload's attention mode.
	var es memnn.EmbeddedStory
	us("memnn.embed_story_us", p.time(nil, func() { _, _ = embed(model, corpus, in.tokens, &es) }))
	ex, err := embed(model, corpus, in.tokens, &es)
	if err != nil {
		return err
	}
	qIDs, err := encodeQuestions(corpus, []string{in.asked})
	if err != nil {
		return err
	}
	ex.Question = qIDs[0]
	var exact memnn.Forward // the exact pass: its U[k] are the hop queries below
	model.ApplyGated(ex, 0, memnn.ExitPolicy{}, &exact, &es, nil)

	// sparse: the per-hop IVF indices BuildStoryIndex would build. Built
	// by hand so exact workloads get the numbers too (there they say
	// what topk would cost at this size, not what was served).
	hops, ns, d := model.Cfg.Hops, es.NS, model.Cfg.Dim
	index := make([]*sparse.TopKIndex, hops)
	us("sparse.index_build_us", p.time(nil, func() {
		for k := range index {
			index[k] = sparse.BuildTopKIndex(es.MemIn[k], sparse.IndexOptions{})
		}
	}))
	var indexBytes int64
	for _, ix := range index {
		indexBytes += ix.SizeBytes()
	}
	out["sparse.index_bytes"] = metric{Value: float64(indexBytes), Unit: "B"}
	scr := sparse.GetProbeScratch()
	us("sparse.attend_us", p.time(nil, func() { index[0].Attend(exact.U[0], topkK, 0, scr) }))
	var probed, kept, found, wanted int
	logits := tensor.NewVector(ns)
	for k, ix := range index {
		c, st := ix.Attend(exact.U[k], topkK, 0, scr)
		probed, kept = probed+st.Probed, kept+st.Kept
		tensor.MatVec(nil, es.MemIn[k], exact.U[k], logits)
		best := bruteTopK(logits, topkK)
		wanted += len(best)
		for _, row := range c.Index {
			if best[int(row)] {
				found++
			}
		}
	}
	sparse.PutProbeScratch(scr)
	count("sparse.probed_rows", float64(probed)/float64(hops))
	count("sparse.kept_rows", float64(kept)/float64(hops))
	out["sparse.probe_ratio"] = metric{Value: float64(probed) / float64(hops*ns), Unit: "ratio"}
	out["sparse.recall_at_k"] = metric{Value: float64(found) / float64(wanted), Unit: "ratio"}

	if e.w.TopK {
		es.Index = index // what embedSession leaves behind in topk mode
	}
	var f memnn.Forward
	var ins memnn.Instrumentation
	predict := func() { model.PredictGated(ex, 0, memnn.ExitPolicy{}, &f, &es, &ins) }
	us("memnn.predict_us", p.time(nil, predict))
	count("memnn.predict_allocs", testing.AllocsPerRun(20, predict))

	// tensor: one exact hop's three passes over ns x d, and the bytes
	// they move (M_IN and M_OUT once, the ns-vector p four times).
	memIn, memOut, u := es.MemIn[0], es.MemOut[0], exact.U[0]
	pv, o := tensor.NewVector(ns), tensor.NewVector(d)
	us("tensor.matvec_us", p.time(nil, func() { tensor.MatVec(nil, memIn, u, pv) }))
	tensor.MatVec(nil, memIn, u, logits)
	us("tensor.softmax_us", p.time(func() { copy(pv, logits) }, func() { tensor.Softmax(pv) }))
	us("tensor.axpy_sweep_us", p.time(nil, func() {
		o.Zero()
		for i := 0; i < ns; i++ {
			tensor.Axpy(pv[i], memOut.Row(i), o)
		}
	}))
	out["tensor.hop_bytes"] = metric{Value: float64(2*ns*d*4 + 4*ns*4), Unit: "B"}
	return nil
}

// bruteTopK returns the set of the k rows with the largest logits, ties
// to the lower row — the exact answer sparse.Attend approximates.
func bruteTopK(logits tensor.Vector, k int) map[int]bool {
	rows := make([]int, len(logits))
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool { return logits[rows[a]] > logits[rows[b]] })
	best := map[int]bool{}
	for _, r := range rows[:min(k, len(rows))] {
		best[r] = true
	}
	return best
}
