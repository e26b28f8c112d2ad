package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mnnfast/internal/memnn"
	"mnnfast/internal/trace"
)

// newTracedServer wraps the shared trained model in a fresh Server with
// tracing enabled (SampleEvery 1 so every trace is retained).
func newTracedServer(t testing.TB, topt TraceOptions) *Server {
	t.Helper()
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	if topt.SampleEvery == 0 {
		topt.SampleEvery = 1
	}
	s.EnableTracing(topt)
	return s
}

// getJSON fetches path and decodes the response body into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

// spanNames flattens an exported span forest into a name set.
func spanNames(spans []*trace.ExportSpan, into map[string]int) {
	for _, sp := range spans {
		into[sp.Name]++
		spanNames(sp.Children, into)
	}
}

func TestTracingEndToEnd(t *testing.T) {
	s := newTracedServer(t, TraceOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, "/v1/story", "tr", map[string]any{
		"sentences": []string{"mary went to the kitchen"}, "reset": true,
	})

	// Answer with an inbound W3C trace context: the trace must join it.
	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/answer",
		strings.NewReader(`{"question":"where is mary?"}`))
	req.Header.Set("X-Session", "tr")
	req.Header.Set("traceparent", inbound)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("X-Trace-ID = %q, want the inbound trace ID", traceID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.HasPrefix(tp, "00-"+traceID+"-") {
		t.Fatalf("outbound traceparent %q does not carry trace ID %s", tp, traceID)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID header")
	}

	// Index lists the trace.
	var idx TraceIndexResponse
	getJSON(t, ts, "/v1/traces", &idx)
	if len(idx.Traces) == 0 {
		t.Fatal("trace index empty")
	}
	if idx.Stats.Retained == 0 {
		t.Fatalf("stats: %+v", idx.Stats)
	}

	// The span tree covers the full path: root handler → vectorize →
	// embed-story (first answer on this session) → infer → hops.
	var ex trace.Export
	if r := getJSON(t, ts, "/v1/traces/"+traceID, &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", r.StatusCode)
	}
	if ex.ID != traceID || ex.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("export identity: id=%s parent=%s", ex.ID, ex.ParentSpanID)
	}
	names := map[string]int{}
	spanNames(ex.Spans, names)
	for _, want := range []string{"answer", "vectorize", "embed-story", "infer", "hop", "output"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (got %v)", want, names)
		}
	}
	if names["hop"] != s.model.Cfg.Hops {
		t.Errorf("hop spans = %d, want %d", names["hop"], s.model.Cfg.Hops)
	}

	// Chrome export parses and carries the same span count.
	resp, err = ts.Client().Get(ts.URL + "/v1/traces/" + traceID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var ce struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ce)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(ce.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	for _, ev := range ce.TraceEvents {
		if ev.Ph != "X" || ev.TS < 0 {
			t.Fatalf("bad chrome event %+v", ev)
		}
	}

	// Unknown format is a 400; unknown ID a 404.
	if r := getJSON(t, ts, "/v1/traces/"+traceID+"?format=svg", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("format=svg status %d, want 400", r.StatusCode)
	}
	if r := getJSON(t, ts, "/v1/traces/ffffffffffffffffffffffffffffffff", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", r.StatusCode)
	}
}

func TestTracingBatchedPath(t *testing.T) {
	s := newBatchedServer(t, BatchOptions{MaxBatch: 4})
	s.EnableTracing(TraceOptions{SampleEvery: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, "/v1/story", "trb", map[string]any{
		"sentences": []string{"john went to the garden"}, "reset": true,
	})
	resp, _ := post(t, ts, "/v1/answer", "trb", map[string]any{"question": "where is john?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("missing X-Trace-ID on batched answer")
	}

	var ex trace.Export
	if r := getJSON(t, ts, "/v1/traces/"+traceID, &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", r.StatusCode)
	}
	names := map[string]int{}
	spanNames(ex.Spans, names)
	for _, want := range []string{"answer", "vectorize", "queue-wait", "batch-flush", "infer", "hop", "worker", "output"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from batched trace (got %v)", want, names)
		}
	}

	// The relayed batch-flush span carries flush metadata, and the
	// span intervals nest inside the request without gaps in ordering:
	// queue-wait ends where batch-flush begins.
	var flush, wait *trace.ExportSpan
	var findSpan func(spans []*trace.ExportSpan)
	findSpan = func(spans []*trace.ExportSpan) {
		for _, sp := range spans {
			switch sp.Name {
			case "batch-flush":
				flush = sp
			case "queue-wait":
				wait = sp
			}
			findSpan(sp.Children)
		}
	}
	findSpan(ex.Spans)
	if flush == nil || wait == nil {
		t.Fatal("missing batch-flush or queue-wait span")
	}
	if flush.Attrs["batch_size"] == nil || flush.Attrs["flush_seq"] == nil || flush.Attrs["cache_hit"] == nil {
		t.Errorf("batch-flush attrs: %v", flush.Attrs)
	}
	if waitEnd := wait.StartNS + wait.DurNS; waitEnd != flush.StartNS {
		t.Errorf("queue-wait ends at %d, batch-flush starts at %d — should meet", waitEnd, flush.StartNS)
	}
}

func TestTracingErrorPathRetained(t *testing.T) {
	s := newTracedServer(t, TraceOptions{SampleEvery: 1 << 30}) // only the error rule can retain
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Burn the warmup sample slot (the very first commit is always
	// sampled in) with a healthy request on a prepared session.
	post(t, ts, "/v1/story", "ok", map[string]any{
		"sentences": []string{"mary went to the kitchen"}, "reset": true,
	})
	post(t, ts, "/v1/answer", "ok", map[string]any{"question": "where is mary?"})

	// No story in this session → 409; the errored trace must be
	// retained and flagged, and error replies carry trace headers too.
	resp, _ := post(t, ts, "/v1/answer", "empty-session", map[string]any{"question": "where is mary?"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" || resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("error reply missing X-Trace-ID / X-Request-ID")
	}
	var ex trace.Export
	if r := getJSON(t, ts, "/v1/traces/"+traceID, &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("errored trace not retained: status %d", r.StatusCode)
	}
	if !ex.Error {
		t.Error("trace not flagged as error")
	}
	// JSON numbers decode as float64.
	if len(ex.Spans) == 0 || ex.Spans[0].Attrs["status"] != float64(409) {
		t.Errorf("root span should carry status=409: %+v", ex.Spans)
	}
	if st := s.rec.Stats(); st.KeptErr == 0 {
		t.Errorf("KeptErr = 0: %+v", st)
	}
}

func TestTracesDisabled(t *testing.T) {
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if r := getJSON(t, ts, "/v1/traces", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("index status %d, want 404 when tracing is off", r.StatusCode)
	}
	if r := getJSON(t, ts, "/v1/traces/0123", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("get status %d, want 404 when tracing is off", r.StatusCode)
	}
	// Answers work untraced and carry no trace header.
	post(t, ts, "/v1/story", "off", map[string]any{
		"sentences": []string{"mary went to the kitchen"}, "reset": true,
	})
	resp, _ := post(t, ts, "/v1/answer", "off", map[string]any{"question": "where is mary?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced answer status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-ID") != "" {
		t.Error("X-Trace-ID set with tracing disabled")
	}
}

func TestExemplarOnAnswerHistogram(t *testing.T) {
	s := newTracedServer(t, TraceOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/story", "exm", map[string]any{
		"sentences": []string{"mary went to the kitchen"}, "reset": true,
	})
	for i := 0; i < 3; i++ {
		post(t, ts, "/v1/answer", "exm", map[string]any{"question": "where is mary?"})
	}
	snap := s.met.durations["answer"].Snapshot()
	if snap.ExemplarTraceID == "" {
		t.Fatal("answer histogram has no exemplar trace ID")
	}
	// The exemplar resolves to a retained trace (SampleEvery=1).
	tr := s.rec.Lookup(snap.ExemplarTraceID)
	if tr == nil {
		t.Fatalf("exemplar %q not resolvable", snap.ExemplarTraceID)
	}
	s.rec.Release(tr)
}

func TestUptimeAndBuildInfoMetrics(t *testing.T) {
	s := testServer(t)
	sc := scrape(t, s)
	if _, ok := sc["mnnfast_uptime_seconds"]; !ok {
		t.Error("mnnfast_uptime_seconds not exported")
	}
	found := false
	for k := range sc {
		if strings.HasPrefix(k, "mnnfast_build_info{") {
			if !strings.Contains(k, `go_version="go`) || !strings.Contains(k, `revision=`) {
				t.Errorf("build info labels: %s", k)
			}
			if sc[k] != 1 {
				t.Errorf("build info value = %v, want 1", sc[k])
			}
			found = true
		}
	}
	if !found {
		t.Error("mnnfast_build_info not exported")
	}
}

func TestTracedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newTracedServer(t, TraceOptions{Capacity: 8, SampleEvery: 1})
	ex := s.corpus.Test[0]
	var es memnn.EmbeddedStory
	s.model.EmbedStoryInto(ex, &es)

	// Warm the trace pool past ring capacity and the forward pool at
	// this shape.
	for i := 0; i < 32; i++ {
		tr := s.rec.StartTrace("answer", "req")
		root := tr.Start("answer", 0)
		s.predict(ex, &es, tr)
		tr.Finish(root)
		s.rec.Commit(tr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr := s.rec.StartTrace("answer", "req")
		root := tr.Start("answer", 0)
		s.predict(ex, &es, tr)
		tr.Finish(root)
		s.rec.Commit(tr)
	})
	if allocs != 0 {
		t.Fatalf("traced predict allocated %.1f/op, want 0", allocs)
	}
}
