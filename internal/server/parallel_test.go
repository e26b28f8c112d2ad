package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"mnnfast/internal/obs"
)

// TestParallelServing wires the full stack: a server with batching and
// intra-query parallelism enabled answers identically to the serial
// server, and the scheduler counters surface in /v1/metrics.
func TestParallelServing(t *testing.T) {
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableParallelism(4); err != nil {
		t.Fatal(err)
	}
	// The model is shared across tests in this package: restore serial
	// inference before the pool closes.
	defer func() {
		base.model.SetParallel(nil)
		s.Close()
	}()
	if err := s.EnableParallelism(4); err == nil {
		t.Fatal("second EnableParallelism did not error")
	}
	s.EnableBatching(BatchOptions{MaxBatch: 4})

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, "/v1/story", "par", StoryRequest{Reset: true, Sentences: []string{
		"john went to the kitchen",
		"mary went to the garden",
		"john went to the garden",
	}})
	var want string
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts, "/v1/answer", "par", AnswerRequest{Question: "where is john?"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer %d: status %d: %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			want = string(body)
		} else if string(body) != want {
			t.Fatalf("answer %d: %s, first answer %s", i, body, want)
		}
	}

	resp, body := getBody(t, ts, "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	sc, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("metrics output does not parse: %v", err)
	}
	if v := sc.Value("mnnfast_sched_workers"); v != 4 {
		t.Errorf("mnnfast_sched_workers = %v, want 4", v)
	}
	if sc.Value("mnnfast_sched_runs_total")+sc.Value("mnnfast_sched_serial_runs_total") == 0 {
		t.Error("scheduler run counters all zero after answering")
	}
	var chunks float64
	for i := 0; i < 4; i++ {
		chunks += sc.Value(`mnnfast_sched_worker_chunks_total{worker="` + string(rune('0'+i)) + `"}`)
	}
	if chunks == 0 {
		t.Error("no worker chunk counters recorded")
	}
}

func TestEnableParallelismValidation(t *testing.T) {
	base := testServer(t)
	s, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableParallelism(0); err == nil {
		t.Error("EnableParallelism(0) did not error")
	}
}
