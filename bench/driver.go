package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/server"
	"mnnfast/internal/tensor"
)

// The end-to-end driver. Of the system it touches only what a deployment
// does: the obtainModel recipe, server.New, EnableBatching,
// EnableTracing, Model.SetTopK, Handler and Close. Everything it learns
// about the server comes back over HTTP. Calls into the layers' own
// entry points (the probes and the reference answers) live in layers.go.

// trainModel is cmd/mnnfast-serve's obtainModel recipe, verbatim.
func trainModel() (*memnn.Model, *memnn.Corpus, error) {
	opt := babi.GenOptions{Stories: 600, StoryLen: 12, People: 6, Locations: 6}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(7)))
	train, test := d.Split(0.9)
	corpus := memnn.BuildCorpus(train, test, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim: 24, Hops: 2,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, nil, err
	}
	topt := memnn.DefaultTrainOptions()
	topt.Epochs = 40
	if _, err := model.Train(corpus.Train, topt); err != nil {
		return nil, nil, err
	}
	return model, corpus, nil
}

// widen raises the model's story capacity to rows sentences (training
// at this capacity directly takes minutes): the trained temporal rows
// keep their place (row 0 is the most recent sentence) and the rest are
// seeded Gaussian rows. Output rows use the init stddev. Input rows use
// timeInStd: at the init stddev a 32768-row attention vector is near
// uniform (its 32 largest weights hold 2% of the mass), which no trained
// MemNN shows (the paper's Fig 6) and on which top-k agrees with exact
// attention only by chance; at timeInStd the 32 largest hold ~80%.
func widen(model *memnn.Model, corpus *memnn.Corpus, rows int) {
	const timeInStd, timeOutStd = 1.0, 0.1
	rng := rand.New(rand.NewSource(7))
	grow := func(old *tensor.Matrix, std float32) *tensor.Matrix {
		m := tensor.GaussianMatrix(rng, rows, old.Cols, std)
		copy(m.Data, old.Data)
		return m
	}
	for k := range model.TimeIn {
		model.TimeIn[k] = grow(model.TimeIn[k], timeInStd)
		model.TimeOut[k] = grow(model.TimeOut[k], timeOutStd)
	}
	model.Cfg.MaxSent = rows
	corpus.MaxSent = rows
}

// newServer configures a server as mnnfast-serve would for the workload.
func newServer(model *memnn.Model, corpus *memnn.Corpus, w workload, tracing bool) (*server.Server, error) {
	srv, err := server.New(model, corpus)
	if err != nil {
		return nil, err
	}
	// One model serves one workload, so the mode is set either way.
	model.SetTopK(memnn.TopKConfig{Enabled: w.TopK, K: topkK})
	if w.Batched {
		srv.EnableBatching(server.BatchOptions{})
	}
	if tracing {
		srv.EnableTracing(server.TraceOptions{})
	}
	return srv, nil
}

// env is one set-up system: trained model, configured server behind a
// loopback listener, and one loaded session per client.
type env struct {
	cfg     config
	w       workload
	model   *memnn.Model
	corpus  *memnn.Corpus
	srv     *server.Server
	ts      *httptest.Server
	clients []*client

	setupS, trainS, storyGenS float64
}

// setUp does everything a run needs before its first steady-state
// request — train, widen, generate the stories, start the server, POST
// each session's story and get its first answers — and times it. spans,
// when non-nil, wraps the handler tree for the traced pass.
func setUp(cfg config, w workload, spans *spanLog) (*env, error) {
	t0 := time.Now()
	model, corpus, err := trainModel()
	if err != nil {
		return nil, err
	}
	widen(model, corpus, cfg.Rows)
	e := &env{cfg: cfg, w: w, model: model, corpus: corpus}
	e.trainS = time.Since(t0).Seconds()

	streams := make([]*stream, runtime.GOMAXPROCS(0))
	for i := range streams {
		streams[i] = newStream(cfg, w, i)
	}
	if e.srv, err = newServer(model, corpus, w, true); err != nil {
		return nil, err
	}
	h := e.srv.Handler()
	if spans != nil {
		h = spans.handler(h)
	}
	e.ts = httptest.NewServer(h)
	for i, st := range streams {
		e.clients = append(e.clients, &client{
			id: i, st: st, url: e.ts.URL, session: "s" + strconv.Itoa(i), spans: spans,
			hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		})
	}
	e.each((*client).cycle)
	e.setupS = time.Since(t0).Seconds()
	for _, st := range streams {
		e.storyGenS += st.GenT.Seconds() // clients generate concurrently: CPU time, not wall time
	}
	if _, failed, firstErr := e.counts(); failed > 0 {
		e.close()
		return nil, fmt.Errorf("set-up: %s", firstErr)
	}
	e.clearSamples()
	return e, nil
}

func (e *env) close() {
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	e.ts.Close()
	e.srv.Close()
}

// each runs fn once per client, concurrently, and waits: the closed
// loop has exactly GOMAXPROCS callers, each waiting for its reply.
func (e *env) each(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// steady runs the workload's steady-state stream for d. It collects the
// garbage of the phase before first, so that phase's collection does not
// land in this one's samples.
func (e *env) steady(d time.Duration) {
	runtime.GC()
	start := time.Now()
	e.each(func(c *client) {
		c.phase = start
		for time.Since(start) < d {
			c.exec(c.st.next())
		}
	})
}

// ingest has every client replace its story with a fresh one and ask
// every question about it, again and again, for at least cfg.Ingests
// cycles and cfg.IngestMin; it returns how long that took. This is where
// a workload without writes in its stream gets its update-to-answer
// samples, and where the answer check gets more stories than sessions.
func (e *env) ingest() time.Duration {
	runtime.GC()
	start := time.Now()
	e.each(func(c *client) {
		c.phase = start
		for n := 0; n < e.cfg.Ingests || time.Since(start) < e.cfg.IngestMin; n++ {
			c.cycle()
		}
	})
	return time.Since(start)
}

// answered is one checked-later answer: which question against which
// story version, and what the server said.
type answered struct {
	Version  int32
	Question uint8
	Index    int16
}

// client is one closed-loop QA user: one keep-alive connection, one
// session, one request in flight.
type client struct {
	id      int
	hc      *http.Client
	url     string
	session string
	st      *stream
	spans   *spanLog // traced pass only
	seq     int

	phase     time.Time // start of the phase being recorded
	postStart time.Time // start of the last story POST
	afterPost bool      // the next answer is the first after a story POST

	hits      []sample   // answers served from the session's cached story
	updates   []sample   // the first answer after a story POST, timed from the POST's start
	got       []answered // every successful answer of every phase, for the check
	attempted int
	failed    int
	firstErr  string
}

// cycle loads a fresh story and asks every question about it.
func (c *client) cycle() {
	c.exec(c.st.load())
	for q := range questions {
		c.exec(ask(q))
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// exec sends one request, waits for the reply, and records it.
func (c *client) exec(o op) {
	c.attempted++
	req, err := http.NewRequest(http.MethodPost, c.url+o.path(), bytes.NewReader(o.Body))
	if err != nil {
		c.fail("%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Session", c.session)
	var reqID string
	if c.spans != nil && c.spans.on.Load() {
		c.seq++
		reqID = "c" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
		req.Header.Set("X-Request-ID", reqID)
	}

	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail("%s: %v", o.path(), err)
		return
	}
	var ans server.AnswerResponse // a story reply fills Sentences only
	derr := json.NewDecoder(resp.Body).Decode(&ans)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	end := time.Now()
	if reqID != "" {
		c.spans.add("client.request", reqID, start, end)
	}

	switch {
	case resp.StatusCode != http.StatusOK:
		c.fail("%s: status %d", o.path(), resp.StatusCode)
		return
	case derr != nil:
		c.fail("%s: reply: %v", o.path(), derr)
		return
	case ans.Sentences != c.st.n:
		c.fail("%s: server holds %d sentences, stream sent %d", o.path(), ans.Sentences, c.st.n)
		return
	}
	if o.Kind == opStory {
		c.postStart, c.afterPost = start, true
		return
	}
	s := sample{End: end.Sub(c.phase).Nanoseconds(), Lat: end.Sub(start).Nanoseconds()}
	c.got = append(c.got, answered{Version: c.st.version(), Question: uint8(o.Question), Index: int16(ans.Index)})
	if c.afterPost {
		c.afterPost = false
		s.Lat = end.Sub(c.postStart).Nanoseconds()
		c.updates = append(c.updates, s)
	} else {
		c.hits = append(c.hits, s)
	}
}

// pooled concatenates one kind of sample across clients.
func (e *env) pooled(pick func(c *client) []sample) []sample {
	var out []sample
	for _, c := range e.clients {
		out = append(out, pick(c)...)
	}
	return out
}

func (e *env) counts() (attempted, failed int, firstErr string) {
	for _, c := range e.clients {
		attempted += c.attempted
		failed += c.failed
		if firstErr == "" {
			firstErr = c.firstErr
		}
	}
	return
}

// agreement checks every recorded answer against the reference (exact
// attention on the same story and question, computed here, outside any
// timed window). It returns the share of distinct (story, question)
// pairs on which every served answer equals the reference: counting
// pairs, not answers, keeps the thousands of repeats of a window from
// drowning the stories asked about a few times.
func (e *env) agreement() float64 {
	type pair struct {
		client, version int32
		question        uint8
	}
	agrees := map[pair]bool{}
	for i, c := range e.clients {
		want := referenceAnswers(e.model, e.corpus, c.st, c.got)
		for j, g := range c.got {
			p := pair{int32(i), g.Version, g.Question}
			ok, seen := agrees[p]
			agrees[p] = (ok || !seen) && want[j] == int(g.Index)
		}
	}
	agree := 0
	for _, ok := range agrees {
		if ok {
			agree++
		}
	}
	if len(agrees) == 0 {
		return 0
	}
	return float64(agree) / float64(len(agrees))
}

// heapLiveMB is HeapAlloc after a forced GC. Callers drop the
// benchmark's own sample buffers first, so what is left is the system:
// model, sessions, caches, pools.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// clearSamples drops the latency samples of the phase just run; the
// answers stay, so the check covers every phase.
func (e *env) clearSamples() {
	for _, c := range e.clients {
		c.hits, c.updates = nil, nil
	}
}

// verdict fills in the request counts and checks the answers of every
// phase so far. Exact-attention workloads must agree with the reference
// on every answer; topk workloads report their agreement.
func (e *env) verdict(res *workloadResult) (agreement float64) {
	res.Attempted, res.Failed, res.FirstError = e.counts()
	agreement = e.agreement()
	res.Correct = res.Failed == 0 && (e.w.TopK || agreement == 1)
	if !res.Correct && res.FirstError == "" {
		res.FirstError = fmt.Sprintf("answer_agreement %v on an exact-attention workload", agreement)
	}
	return agreement
}

// runEndToEnd is the untraced pass: the numbers a user of the system
// would see.
func runEndToEnd(cfg config, w workload) (*workloadResult, error) {
	var e *env
	var setups []float64
	for i := 0; i < cfg.SetupReps; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(cfg, w, nil); err != nil {
			return nil, err
		}
		setups = append(setups, e.setupS)
	}
	defer e.close()

	res := &workloadResult{Name: w.Name, EndToEnd: map[string]metric{}}
	res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", Segments: setups}

	var updates []sample
	var updatePhase time.Duration
	if !w.Churn {
		updatePhase = e.ingest()
		updates = e.pooled(func(c *client) []sample { return c.updates })
	}
	e.steady(cfg.warmup())
	e.clearSamples()
	e.steady(cfg.Window)
	if w.Churn {
		updates, updatePhase = e.pooled(func(c *client) []sample { return c.updates }), cfg.Window
	}
	hits := e.pooled(func(c *client) []sample { return c.hits })
	answers := append(e.pooled(func(c *client) []sample { return c.updates }), hits...)
	if len(hits) == 0 || len(updates) == 0 {
		return nil, fmt.Errorf("%s: window of %v too short: %d cached answers, %d updates", w.Name, cfg.Window, len(hits), len(updates))
	}
	res.EndToEnd["answer_p50_us"] = timing(hits, cfg.Window, 0.5)
	res.EndToEnd["answer_p95_us"] = timing(hits, cfg.Window, 0.95)
	res.EndToEnd["answers_per_s"] = rate(answers, cfg.Window)
	res.EndToEnd["update_to_answer_p50_us"] = timing(updates, updatePhase, 0.5)
	res.EndToEnd["answer_agreement"] = metric{Value: e.verdict(res), Unit: "ratio"}

	// Drop the benchmark's own buffers so the heap that is left is the
	// system's: model, sessions, caches, pools.
	e.clearSamples()
	for _, c := range e.clients {
		c.got, c.st.Log, c.st.Last = nil, nil, nil
	}
	res.EndToEnd["heap_live_mb"] = metric{Value: heapLiveMB(), Unit: "MB"}
	return res, nil
}

// runTraced is the traced pass: an untraced and a traced window on one
// system (their difference is the tracing overhead), the /v1/metrics
// diff over the traced window, the layer probes, and the stage table.
// Spans are written to traceFile once the system is shut down.
func runTraced(cfg config, w workload, traceFile string) (*workloadResult, error) {
	spans := newSpanLog()
	e, err := setUp(cfg, w, spans)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Name: w.Name, PerLayer: map[string]metric{}}
	p50, err := e.traced(spans, res)
	e.close() // the handler goroutines are done: the spans can be read
	if err != nil {
		return nil, err
	}

	// The stage table: what the probes account for, and what they do not.
	L := res.PerLayer
	queue := 0.0
	if w.Batched {
		queue = L["batcher.do_us"].Value
	}
	handler := L["server.handler_us"].Value
	known := L["server.json_decode_us"].Value + L["vocab.question_encode_us"].Value + queue +
		L["memnn.predict_us"].Value + L["server.json_encode_us"].Value
	L["client.transport_us"] = metric{Value: p50 - handler, Unit: "us"}
	L["server.unaccounted_us"] = metric{Value: handler - known, Unit: "us"}
	res.Stages = []stage{
		{"transport", p50 - handler},
		{"decode", L["server.json_decode_us"].Value},
		{"vectorize", L["vocab.question_encode_us"].Value},
		{"queue-wait", queue},
		{"embed", 0},       // answer_p50_us is over answers served from the
		{"index-build", 0}, // session cache: both stages are skipped on them
		{"attention", L["memnn.predict_us"].Value},
		{"encode", L["server.json_encode_us"].Value},
		{"unaccounted", handler - known},
	}
	handlerSpans, clientSelf := spans.selfTimes()
	res.spanHandlerUS, res.spanClientSelfUS = median(handlerSpans), median(clientSelf)
	return res, spans.write(traceFile, w.Name)
}

// traced is the part of the traced pass that needs the system up. It
// fills res.PerLayer and returns the untraced window's answer p50 in µs.
func (e *env) traced(spans *spanLog, res *workloadResult) (p50 float64, err error) {
	L := res.PerLayer
	L["bench.train_s"] = metric{Value: e.trainS, Unit: "s"}
	L["bench.story_gen_s"] = metric{Value: e.storyGenS, Unit: "s"}

	window := e.cfg.Window * 2 / 5
	e.steady(e.cfg.warmup())
	e.clearSamples()
	e.steady(window)
	plain := e.pooled(func(c *client) []sample { return c.hits })
	e.clearSamples()
	before, err := scrape(e.ts.URL)
	if err != nil {
		return 0, err
	}
	spans.on.Store(true)
	e.steady(window)
	spans.on.Store(false)
	traced := e.pooled(func(c *client) []sample { return c.hits })
	after, err := scrape(e.ts.URL)
	if err != nil {
		return 0, err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0, fmt.Errorf("%s: window of %v too short for a cached answer", e.w.Name, window)
	}
	e.verdict(res)

	p50 = quantile(latencies(plain), 0.5)
	L["bench.trace_overhead_pct"] = metric{Value: 100 * (quantile(latencies(traced), 0.5) - p50) / p50, Unit: "%"}
	tailUS, tailPct, tailN := tail(plain)
	L["client.answer_ptail_us"] = metric{Value: tailUS, Unit: "us"}
	L["client.answer_ptail_pct"] = metric{Value: tailPct, Unit: "%"}
	L["client.answer_ptail_n"] = metric{Value: float64(tailN), Unit: "count"}

	diff := after.Sub(before)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	cacheHits := diff.Value("mnnfast_embedding_cache_hits_total")
	L["server.cache_hit_ratio"] = metric{Value: ratio(cacheHits, cacheHits+diff.Value("mnnfast_embedding_cache_misses_total")), Unit: "ratio"}
	L["server.sessions"] = metric{Value: after.Value("mnnfast_sessions"), Unit: "count"}
	L["batcher.mean_batch_size"] = metric{Value: ratio(diff.Value("mnnfast_batch_size_sum"), diff.Value("mnnfast_batch_size_count")), Unit: "count"}
	L["batcher.shed_total"] = metric{Value: diff.Value("mnnfast_batch_shed_total"), Unit: "count"}
	return p50, probeLayers(e, L)
}
