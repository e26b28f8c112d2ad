package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzPost feeds raw bytes to a handler and checks the decoder
// invariants every request body must satisfy: no panic, a status from
// the endpoint's documented set, and a well-formed JSON response.
func fuzzPost(t *testing.T, h http.Handler, path, session string, data []byte, allowed map[int]bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("X-Session", session)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !allowed[rec.Code] {
		t.Errorf("%s with body %q: unexpected status %d: %s", path, data, rec.Code, rec.Body.String())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Errorf("%s with body %q: response is not JSON: %q", path, data, rec.Body.String())
	}
}

// FuzzStoryJSON fuzzes the POST /v1/story request decoder. Valid
// requests mutate the fuzz session, which is fine — the invariant under
// test is that no byte sequence can crash the decoder or escape the
// documented status set.
func FuzzStoryJSON(f *testing.F) {
	f.Add([]byte(`{"sentences":["john went to the kitchen"]}`))
	f.Add([]byte(`{"sentences":["john went to the kitchen"],"reset":true}`))
	f.Add([]byte(`{"sentences":[]}`))
	f.Add([]byte(`{"sentences":[""]}`))
	f.Add([]byte(`{"sentences":["xylophones are great"]}`))
	f.Add([]byte(`{"sentences":123}`))
	f.Add([]byte(`{"sentences":`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"sentences":["` + "\x00\xff" + `"]}`))

	s := testServer(f)
	h := s.Handler()
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusUnprocessableEntity:   true,
		http.StatusRequestEntityTooLarge: true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzPost(t, h, "/v1/story", "fuzz-story", data, allowed)
	})
}

// FuzzAnswerJSON fuzzes the POST /v1/answer request decoder, through
// both the unbatched and the batched handler tails.
func FuzzAnswerJSON(f *testing.F) {
	f.Add([]byte(`{"question":"where is john?"}`))
	f.Add([]byte(`{"question":""}`))
	f.Add([]byte(`{"question":"zorblax?"}`))
	f.Add([]byte(`{"question":123}`))
	f.Add([]byte(`{"question`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"question":"` + "\x7f\x00" + `"}`))

	base := testServer(f)
	plain, err := New(base.model, base.corpus)
	if err != nil {
		f.Fatal(err)
	}
	batched, err := New(base.model, base.corpus)
	if err != nil {
		f.Fatal(err)
	}
	batched.EnableBatching(BatchOptions{MaxBatch: 4})
	plainH, batchedH := plain.Handler(), batched.Handler()

	// No story is seeded: a well-formed in-vocabulary question reaches
	// the inference stage and gets the no-story 409.
	allowed := map[int]bool{
		http.StatusConflict:              true,
		http.StatusBadRequest:            true,
		http.StatusUnprocessableEntity:   true,
		http.StatusRequestEntityTooLarge: true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzPost(t, plainH, "/v1/answer", "fuzz-answer", data, allowed)
		fuzzPost(t, batchedH, "/v1/answer", "fuzz-answer", data, allowed)
	})
}
