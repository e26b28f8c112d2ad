package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// storyText returns n story sentences spelled from the test corpus's
// training stories, cycling through them.
func storyText(s *Server, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		for _, ex := range s.corpus.Train {
			for _, ids := range ex.Sentences {
				words := make([]string, len(ids))
				for i, id := range ids {
					words[i] = s.corpus.Vocab.Word(id)
				}
				out = append(out, strings.Join(words, " "))
				if len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// TestEncodeStoryAllocs: the story-encode step of handleStory allocates
// the same small number of times whatever the sentence count — one ID
// arena and one slice of sentences, nothing per sentence or per word.
func TestEncodeStoryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := testServer(t)
	var counts []float64
	for _, n := range []int{16, 4096} {
		raw := storyText(s, n)
		raw[0] = strings.ToUpper(raw[0]) + "." // capitals and separators fold in place
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, _, err := encodeStory(s.corpus.Vocab, raw); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 2 {
		t.Errorf("encodeStory allocates %v at 16 sentences and %v at 4096, want the same count, at most 2", counts[0], counts[1])
	}
}

// TestEncodeStoryErrors: the first bad sentence is reported by index, an
// empty one as errEmptySentence and an unknown word with its text.
func TestEncodeStoryErrors(t *testing.T) {
	s := testServer(t)
	ok := storyText(s, 1)[0]
	for _, c := range []struct {
		raw   []string
		bad   int
		empty bool
		msg   string
	}{
		{[]string{ok, " .?! ", "zebra"}, 1, true, ""},
		{[]string{ok, ok, "the ZEBRA went", ""}, 2, false, `vocab: unknown word "zebra"`},
	} {
		sents, bad, err := encodeStory(s.corpus.Vocab, c.raw)
		switch {
		case err == nil || sents != nil || bad != c.bad:
			t.Errorf("%q: sentence %d, err %v, want sentence %d to fail", c.raw, bad, err, c.bad)
		case c.empty != (err == errEmptySentence):
			t.Errorf("%q: err %v, empty sentence %v", c.raw, err, c.empty)
		case !c.empty && err.Error() != c.msg:
			t.Errorf("%q: err %q, want %q", c.raw, err, c.msg)
		}
	}
}

// TestStoryStoreBounded: a client that keeps appending never grows the
// stored story beyond MaxSent sentences, the reply still counts every
// sentence received since the last reset, and every answer over the
// appended story equals the answer after a fresh reset POST of its last
// MaxSent sentences.
func TestStoryStoreBounded(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	maxSent := s.model.Cfg.MaxSent
	const k, per = 23, 5
	text := storyText(s, maxSent+k)

	resp, body := post(t, ts, "/v1/story", "appender", StoryRequest{Sentences: text[:maxSent], Reset: true})
	if resp.StatusCode != 200 {
		t.Fatalf("story: %d %s", resp.StatusCode, body)
	}
	for lo := maxSent; lo < len(text); lo += per {
		hi := min(lo+per, len(text))
		resp, body = post(t, ts, "/v1/story", "appender", StoryRequest{Sentences: text[lo:hi]})
		if want := fmt.Sprintf(`{"sentences":%d}`, hi); resp.StatusCode != 200 || strings.TrimSpace(string(body)) != want {
			t.Fatalf("append [%d,%d): %d %s, want %s", lo, hi, resp.StatusCode, body, want)
		}
	}
	sess := s.session(answerReq("appender", ""))
	sess.mu.RLock()
	stored := len(sess.sentences)
	sess.mu.RUnlock()
	if stored != maxSent {
		t.Fatalf("stored %d sentences after %d received, want MaxSent = %d", stored, len(text), maxSent)
	}

	resp, body = post(t, ts, "/v1/story", "fresh", StoryRequest{Sentences: text[k:], Reset: true})
	if resp.StatusCode != 200 {
		t.Fatalf("fresh story: %d %s", resp.StatusCode, body)
	}
	for _, q := range []string{"where is john?", "where is mary?", "where is sandra?"} {
		var g, w AnswerResponse
		for _, c := range []struct {
			session string
			into    *AnswerResponse
		}{{"appender", &g}, {"fresh", &w}} {
			resp, body := post(t, ts, "/v1/answer", c.session, AnswerRequest{Question: q})
			if resp.StatusCode != 200 {
				t.Fatalf("%s %q: %d %s", c.session, q, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, c.into); err != nil {
				t.Fatal(err)
			}
		}
		if g.Index != w.Index || g.Answer != w.Answer {
			t.Errorf("%q: appended story answers %q (%d), fresh story %q (%d)", q, g.Answer, g.Index, w.Answer, w.Index)
		}
	}
}

// BenchmarkEncodeStory encodes a 32768-sentence story request, the long
// workloads' write.
func BenchmarkEncodeStory(b *testing.B) {
	s := testServer(b)
	raw := storyText(s, 32768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encodeStory(s.corpus.Vocab, raw); err != nil {
			b.Fatal(err)
		}
	}
}
