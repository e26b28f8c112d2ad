package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/vocab"
)

// requestStream renders the first n steady-state requests of a session,
// after its initial load, exactly as they go on the wire.
func requestStream(cfg config, w workload, client, n int) []byte {
	st := newStream(cfg, w, client)
	var buf bytes.Buffer
	emit := func(o op) {
		buf.WriteString(o.path())
		buf.WriteByte('\n')
		buf.Write(o.Body)
		buf.WriteByte('\n')
	}
	emit(st.load())
	for i := 0; i < n; i++ {
		emit(st.next())
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		cfg1, cfg2 := newConfig(true, 1, 1), newConfig(true, 2, 1)
		a, b := requestStream(cfg1, w, 0, 300), requestStream(cfg1, w, 0, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request streams", w.Name)
		}
		if bytes.Equal(a, requestStream(cfg2, w, 0, 300)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.Name)
		}
		if bytes.Equal(a, requestStream(cfg1, w, 1, 300)) {
			t.Errorf("%s: clients 0 and 1 got the same request stream", w.Name)
		}
	}
	// long_topk is long_exact with another attention mode: same requests.
	cfg := newConfig(true, 1, 1)
	exact, _ := findWorkload("long_exact")
	topk, _ := findWorkload("long_topk")
	if !bytes.Equal(requestStream(cfg, exact, 0, 50), requestStream(cfg, topk, 0, 50)) {
		t.Error("long_exact and long_topk got different request streams")
	}
}

func TestChurnStreamShape(t *testing.T) {
	cfg := newConfig(true, 1, 1)
	w, _ := findWorkload("churn_topk")
	st := newStream(cfg, w, 0)
	st.load()
	resets := 0
	for i := 0; i < 40*(2+churnReads); i++ {
		o := st.next()
		wantStory := i%(2+churnReads) == 1+churnReads
		if (o.Kind == opStory) != wantStory {
			t.Fatalf("op %d: kind %d, want story=%v", i, o.Kind, wantStory)
		}
		if st.n < cfg.ChurnBase || st.n > cfg.ChurnLimit {
			t.Fatalf("op %d: story length %d outside [%d, %d]", i, st.n, cfg.ChurnBase, cfg.ChurnLimit)
		}
		if o.Kind == opStory && st.Log[len(st.Log)-1].Reset {
			resets++
		}
	}
	if resets == 0 {
		t.Error("40 cycles never reset the story to its base length")
	}
}

// synthetic builds a full (not quick) one-workload result with every
// end-to-end metric at 100 and flat segments.
func synthetic() *result {
	r := &result{Workloads: []*workloadResult{{Name: "w", Attempted: 1000, EndToEnd: map[string]metric{}}}}
	for _, d := range endToEnd {
		r.Workloads[0].EndToEnd[d.Name] = metric{Value: 100, Unit: d.Unit, Segments: []float64{100, 100, 100, 100, 100}}
	}
	return r
}

func TestSpreadIsTheDriversQuartileRule(t *testing.T) {
	// statistics.quantiles([...], n=4) gives these quartiles in Python.
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, (4.5 - 1.5) / 3},
		{[]float64{10, 30, 20}, (30 - 10) / 20.0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{7}, 0},
		{nil, 0},
	} {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	set := func(r *result, name string, value float64, seg ...float64) *result {
		m := r.Workloads[0].EndToEnd[name]
		m.Value = value
		if seg != nil {
			m.Segments = seg
		}
		r.Workloads[0].EndToEnd[name] = m
		return r
	}
	verdictOf := func(a, b *result, name string) string {
		t.Helper()
		rows, err := compareResults(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Metric == name {
				return r.Verdict
			}
		}
		t.Fatalf("no row for %s", name)
		return ""
	}
	cases := []struct {
		name, metric, want string
		b                  *result
	}{
		{"identical", "answer_p50_us", same, synthetic()},
		{"inside the bound", "answer_p50_us", same, set(synthetic(), "answer_p50_us", 114)},
		{"past the bound", "answer_p50_us", worse, set(synthetic(), "answer_p50_us", 116)},
		{"much better is not worse", "answer_p50_us", same, set(synthetic(), "answer_p50_us", 50)},
		{"higher is better: drop past the bound", "answers_per_s", worse, set(synthetic(), "answers_per_s", 84)},
		{"higher is better: rise", "answers_per_s", same, set(synthetic(), "answers_per_s", 150)},
		{"setup_s has the widest bound", "setup_s", same, set(synthetic(), "setup_s", 124)},
		{"segments wider than the bound", "answer_p50_us", unresolved, set(synthetic(), "answer_p50_us", 130, 80, 85, 100, 115, 120)},
		{"segments inside the bound", "answer_p50_us", worse, set(synthetic(), "answer_p50_us", 130, 127, 130, 130, 130, 133)},
	}
	for _, c := range cases {
		if got := verdictOf(synthetic(), c.b, c.metric); got != c.want {
			t.Errorf("%s: %s is %q, want %q", c.name, c.metric, got, c.want)
		}
	}

	failing := synthetic()
	failing.Workloads[0].Failed = 1
	if got := verdictOf(synthetic(), failing, "error_rate"); got != worse {
		t.Errorf("one failed request: error_rate is %q, want %q", got, worse)
	}
	if got := verdictOf(failing, synthetic(), "error_rate"); got != same {
		t.Errorf("no failed request after one: error_rate is %q, want %q", got, same)
	}

	quick := synthetic()
	quick.Quick = true
	if _, err := compareResults(synthetic(), quick); err == nil {
		t.Error("compare accepted a -quick result")
	}
}

// BENCHMARK.json repeats the tables in result.go and workload.go; the
// driver reads the file and -compare the tables, so they must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", got.Paths)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, got.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", got.PerLayer, perLayer)
	}
}

// The reference the answer check compares against is Model.Predict on
// the same vectorized story and question, whatever the attention mode.
func TestReferenceIsModelPredict(t *testing.T) {
	model, corpus, err := trainModel()
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(true, 5, 1)
	widen(model, corpus, cfg.Rows)
	w, _ := findWorkload("churn_topk")
	if _, err := newServer(model, corpus, w, false); err != nil { // turns topk on
		t.Fatal(err)
	}
	st := newStream(cfg, w, 0)
	st.load()
	st.story(false, churnAppend)
	var got []answered
	for v := range st.Log {
		for q := range questions {
			got = append(got, answered{Version: int32(v), Question: uint8(q)})
		}
	}
	want := referenceAnswers(model, corpus, st, got) // topk is on here

	model.SetTopK(memnn.TopKConfig{})
	qIDs, err := encodeQuestions(corpus, questions)
	if err != nil {
		t.Fatal(err)
	}
	var tokens [][]string
	i := 0
	st.replay(func(v int, _ storyOp, sents []string) {
		for _, s := range sents {
			tokens = append(tokens, vocab.Tokenize(s))
		}
		ex, err := corpus.VectorizeStory(babi.Story{Sentences: tokens})
		if err != nil {
			t.Fatal(err)
		}
		for q := range questions {
			ex.Question = qIDs[q]
			if p := model.Predict(ex); p != want[i] {
				t.Errorf("story version %d (%d sentences), %q: reference %d, Model.Predict %d", v, len(tokens), questions[q], want[i], p)
			}
			i++
		}
	})
}

// TestQuick runs every workload, both passes, at -quick sizes: the
// answer checks must pass and every declared metric must be reported.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five workloads")
	}
	cfg := newConfig(true, 1, 0.5)
	dir := t.TempDir()
	for _, w := range workloads {
		r, err := runWorkload(cfg, w, -1, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d: %s", w.Name, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		for _, d := range endToEnd {
			if m, ok := r.EndToEnd[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (reported: %v)", w.Name, d.Name, m, ok)
			}
		}
		for _, d := range perLayer {
			if m, ok := r.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (reported: %v)", w.Name, d.Name, m, ok)
			}
		}
		if got := r.EndToEnd["answer_agreement"].Value; !w.TopK && got != 1 {
			t.Errorf("%s: answer_agreement %v on exact attention", w.Name, got)
		}
		var sum float64
		for _, s := range r.Stages {
			sum += s.US
		}
		if want := r.PerLayer["client.transport_us"].Value + r.PerLayer["server.handler_us"].Value; sum < 0.999*want || sum > 1.001*want {
			t.Errorf("%s: stage table sums to %v us, transport + handler is %v us", w.Name, sum, want)
		}

		var tr struct {
			Spans []span `json:"spans"`
		}
		b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		linked := 0
		for _, s := range tr.Spans {
			if s.Name == "server.handler" && s.Parent != 0 && tr.Spans[s.Parent-1].RequestID == s.RequestID {
				linked++
			}
		}
		if linked == 0 {
			t.Errorf("%s: no server.handler span is linked to its client.request span", w.Name)
		}
	}
}
