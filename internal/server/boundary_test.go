package server

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"mnnfast/internal/trace"
)

// The inference core (memnn's infer and EmbedStoryInto) panics on three
// inputs: a story of no sentences, a story longer than the model's
// MaxSent, and an EmbeddedStory built for a different sentence count
// than the example it is applied to. These tests drive each of them at the JSON boundary,
// batched and unbatched, and require an ordinary reply; the last one
// checks the backstop for a panic nobody predicted.

// boundaryServers returns a fresh unbatched and a fresh batched server
// over the shared trained model.
func boundaryServers(t *testing.T) map[string]*Server {
	t.Helper()
	base := testServer(t)
	plain, err := New(base.model, base.corpus)
	if err != nil {
		t.Fatal(err)
	}
	batched := newBatchedServer(t, BatchOptions{MaxBatch: 4})
	t.Cleanup(batched.Close)
	return map[string]*Server{"unbatched": plain, "batched": batched}
}

func TestEmptyStoryNeverReachesTheModel(t *testing.T) {
	for name, s := range boundaryServers(t) {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			ask := func(want int) {
				t.Helper()
				resp, body := post(t, ts, "/v1/answer", "s", AnswerRequest{Question: "where is john?"})
				if resp.StatusCode != want {
					t.Fatalf("answer status %d, want %d: %s", resp.StatusCode, want, body)
				}
			}
			// A story of no sentences is accepted and leaves the session empty.
			if resp, body := post(t, ts, "/v1/story", "s", StoryRequest{Sentences: []string{}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("empty story status %d: %s", resp.StatusCode, body)
			}
			ask(http.StatusConflict)
			// So does emptying a session whose embedding is cached.
			post(t, ts, "/v1/story", "s", StoryRequest{Sentences: []string{"john went to the kitchen"}})
			ask(http.StatusOK)
			post(t, ts, "/v1/story", "s", StoryRequest{Reset: true})
			ask(http.StatusConflict)
		})
	}
}

func TestStoryBeyondMaxSentIsTrimmed(t *testing.T) {
	for name, s := range boundaryServers(t) {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			long := make([]string, s.model.Cfg.MaxSent+5)
			for i := range long {
				long[i] = "mary went to the garden"
			}
			long[len(long)-1] = "john went to the kitchen"
			if resp, body := post(t, ts, "/v1/story", "s", StoryRequest{Sentences: long}); resp.StatusCode != http.StatusOK {
				t.Fatalf("story status %d: %s", resp.StatusCode, body)
			}
			// Twice: the embedding miss path, then the cached one.
			for i := 0; i < 2; i++ {
				resp, body := post(t, ts, "/v1/answer", "s", AnswerRequest{Question: "where is john?"})
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"kitchen"`) {
					t.Fatalf("answer %d over a %d-sentence story (MaxSent %d): status %d: %s",
						i, len(long), s.model.Cfg.MaxSent, resp.StatusCode, body)
				}
			}
		})
	}
}

// TestRequestBodyCap: a body over the cap is a 413 on both decoding
// endpoints, whatever it spells; a story of MaxSent sentences — the
// longest the model keeps — is under it.
func TestRequestBodyCap(t *testing.T) {
	for name, s := range boundaryServers(t) {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			maxSent := s.model.Cfg.MaxSent
			over := AnswerRequest{Question: strings.Repeat("a", bodyBaseBytes+maxSent*bodySentenceBytes)}
			for _, path := range []string{"/v1/story", "/v1/answer"} {
				if resp, body := post(t, ts, path, "s", over); resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Errorf("%s with a body over the cap: status %d, want 413: %.80s", path, resp.StatusCode, body)
				}
			}
			full := make([]string, maxSent)
			for i := range full {
				full[i] = "mary went to the garden"
			}
			full[maxSent-1] = "john went to the kitchen"
			if resp, body := post(t, ts, "/v1/story", "s", StoryRequest{Sentences: full}); resp.StatusCode != http.StatusOK {
				t.Fatalf("story of MaxSent = %d sentences: status %d: %s", maxSent, resp.StatusCode, body)
			}
			if resp, body := post(t, ts, "/v1/answer", "s", AnswerRequest{Question: "where is john?"}); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"kitchen"`) {
				t.Fatalf("answer over it: status %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// TestAnswerRacingStoryReplacement replaces a session's story with
// stories of changing length (and, in between, with nothing) while
// other clients keep asking: every answer must come from a story and an
// embedding of the same length — 200, or 409 while the session is
// empty — never the stale-cache panic.
func TestAnswerRacingStoryReplacement(t *testing.T) {
	for name, s := range boundaryServers(t) {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/answer", strings.NewReader(`{"question":"where is john?"}`))
						req.Header.Set("X-Session", "s")
						resp, err := ts.Client().Do(req)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
							t.Errorf("answer status %d", resp.StatusCode)
							return
						}
					}
				}()
			}
			for i := 0; i < 60; i++ {
				story := StoryRequest{Reset: true}
				for j := 0; j < i%(s.model.Cfg.MaxSent+3); j++ {
					story.Sentences = append(story.Sentences, "john went to the kitchen")
				}
				if resp, body := post(t, ts, "/v1/story", "s", story); resp.StatusCode != http.StatusOK {
					t.Fatalf("story status %d: %s", resp.StatusCode, body)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestHandlerPanicIsA500 injects a panic below the middleware: the
// client gets a 500, the stack is logged, the trace is retained as an
// error carrying the panic value, the request is counted as an error
// and as finished, and the server keeps serving.
func TestHandlerPanicIsA500(t *testing.T) {
	s := newTracedServer(t, TraceOptions{SampleEvery: 1 << 30}) // only the error rule can retain
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/answer", func(http.ResponseWriter, *http.Request) { panic("injected fault") })
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(s.instrument(mux))
	defer ts.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	resp, body := post(t, ts, "/v1/answer", "", AnswerRequest{Question: "where is john?"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(logged.String(), "injected fault") || !strings.Contains(logged.String(), "boundary_test.go") {
		t.Errorf("panic value and stack not logged: %q", logged.String())
	}
	var ex trace.Export
	if r := getJSON(t, ts, "/v1/traces/"+resp.Header.Get("X-Trace-ID"), &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("panicked request's trace not retained: status %d", r.StatusCode)
	}
	if !ex.Error || len(ex.Spans) == 0 || ex.Spans[0].Attrs["panic"] != "injected fault" || ex.Spans[0].Attrs["status"] != float64(500) {
		t.Errorf("trace error=%v, root span %+v; want an error trace with panic and status=500", ex.Error, ex.Spans)
	}
	sc := scrape(t, s)
	if got := sc["mnnfast_http_errors_total"]; got != 1 {
		t.Errorf("mnnfast_http_errors_total = %v, want 1", got)
	}
	if got := sc["mnnfast_requests_in_flight"]; got != 0 {
		t.Errorf("mnnfast_requests_in_flight = %v after the panic, want 0", got)
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: %v %v", resp, err)
	}
}
