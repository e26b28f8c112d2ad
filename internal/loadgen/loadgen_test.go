package loadgen

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/server"
)

func testService(t *testing.T) *httptest.Server {
	t.Helper()
	return testServiceWith(t, nil)
}

// testServiceWith builds the QA service, optionally with micro-batching
// (configure != nil runs against the built server before serving).
func testServiceWith(t *testing.T, configure func(*server.Server)) *httptest.Server {
	t.Helper()
	opt := babi.GenOptions{Stories: 200, StoryLen: 8, People: 6, Locations: 6}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(8)))
	train, test := d.Split(0.9)
	corpus := memnn.BuildCorpus(train, test, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim: 16, Hops: 2,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	topt := memnn.DefaultTrainOptions()
	topt.Epochs = 10
	if _, err := model.Train(corpus.Train, topt); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(model, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(srv)
		t.Cleanup(srv.Close)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBatchedServerReport runs concurrent sessions against a batched
// service and checks the report's batching section and the batch
// accounting it is built from. How many answers share a flush depends
// on timing here; server's TestBatchedEquivalence pins coalescing.
func TestBatchedServerReport(t *testing.T) {
	ts := testServiceWith(t, func(s *server.Server) {
		s.EnableBatching(server.BatchOptions{MaxBatch: 8})
	})
	res, err := Run(Config{
		BaseURL:       ts.URL,
		Sessions:      8,
		Questions:     20,
		StoryLen:      5,
		Seed:          3,
		Client:        ts.Client(),
		ServerMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d: %s", res.Errors, res)
	}
	if res.ServerDiff == nil {
		t.Fatal("ServerDiff not captured")
	}
	if got := res.ServerDiff.Value("mnnfast_batch_size_sum"); got != 160 {
		t.Errorf("batched answers = %v, want 160", got)
	}
	if n, fl := res.ServerDiff.Value("mnnfast_batch_size_count"), res.ServerDiff.Value("mnnfast_batch_flushes_total"); n != fl {
		t.Errorf("batch size observations = %v, flushes = %v, want equal", n, fl)
	}
	report := res.ServerReport()
	for _, want := range []string{"batching:", "flushes", "queue wait", "shed"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunAgainstLiveService(t *testing.T) {
	ts := testService(t)
	res, err := Run(Config{
		BaseURL:   ts.URL,
		Sessions:  4,
		Questions: 5,
		StoryLen:  6,
		Seed:      1,
		Client:    ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 20 {
		t.Errorf("requests = %d, want 20", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d: %s", res.Errors, res)
	}
	if res.Throughput() <= 0 {
		t.Errorf("throughput = %v", res.Throughput())
	}
	if res.Percentile(50) <= 0 || res.Percentile(99) < res.Percentile(50) {
		t.Errorf("percentiles inconsistent: p50=%v p99=%v", res.Percentile(50), res.Percentile(99))
	}
	if res.String() == "" {
		t.Error("empty summary")
	}
}

// TestServerMetricsDiff runs with metrics scraping on and checks the
// server-side stage breakdown reflects exactly this run's traffic.
func TestServerMetricsDiff(t *testing.T) {
	ts := testService(t)
	res, err := Run(Config{
		BaseURL:       ts.URL,
		Sessions:      3,
		Questions:     4,
		StoryLen:      5,
		Seed:          2,
		Client:        ts.Client(),
		ServerMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerDiff == nil {
		t.Fatal("ServerDiff not captured")
	}
	if got := res.ServerDiff.Value(`mnnfast_http_requests_total{handler="answer"}`); got != 12 {
		t.Errorf("answer requests diff = %v, want 12", got)
	}
	// 3 sessions each embed once, then hit the cache for the rest.
	if misses := res.ServerDiff.Value("mnnfast_embedding_cache_misses_total"); misses != 3 {
		t.Errorf("cache misses diff = %v, want 3", misses)
	}
	if hits := res.ServerDiff.Value("mnnfast_embedding_cache_hits_total"); hits != 9 {
		t.Errorf("cache hits diff = %v, want 9", hits)
	}
	report := res.ServerReport()
	for _, want := range []string{"attention", "embed", "vectorize", "output", "zero-skip", "embedding cache"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestServerMetricsUnavailable degrades gracefully against a server
// without /v1/metrics.
func TestServerMetricsUnavailable(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(ts.Close)
	res := &Result{}
	if res.ServerReport() != "" {
		t.Error("nil diff should render empty report")
	}
	if _, err := scrapeMetrics(Config{BaseURL: ts.URL, Client: ts.Client()}); err == nil {
		t.Error("scrape of 404 endpoint succeeded")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty base URL accepted")
	}
}

func TestRunCountsServerErrors(t *testing.T) {
	ts := testService(t)
	// Questions reference a person outside the trained vocabulary? All
	// loadgen people are in the generator vocabulary, so instead hit a
	// dead endpoint to force transport errors.
	res, err := Run(Config{
		BaseURL:   "http://127.0.0.1:1",
		Sessions:  2,
		Questions: 3,
		Seed:      1,
		Client:    ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Requests {
		t.Errorf("dead endpoint: %d errors of %d requests", res.Errors, res.Requests)
	}
	if res.Throughput() != 0 {
		t.Errorf("throughput with all errors = %v, want 0", res.Throughput())
	}
}

func TestPercentileEdges(t *testing.T) {
	r := &Result{Latencies: []time.Duration{1, 2, 3, 4}}
	if r.Percentile(-5) != 1 || r.Percentile(200) != 4 {
		t.Errorf("clamping broken: %v / %v", r.Percentile(-5), r.Percentile(200))
	}
	empty := &Result{}
	if empty.Percentile(50) != 0 {
		t.Error("empty percentiles should be 0")
	}
}
