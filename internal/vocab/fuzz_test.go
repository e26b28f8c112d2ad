package vocab

import (
	"slices"
	"testing"
)

// fuzzVocab is the fixed vocabulary FuzzTokenize encodes against: a few
// bAbI words, one non-ASCII word (reachable only through the reference
// path) and one word longer than EncodeText's stack buffer.
func fuzzVocab() *Vocabulary {
	return New().AddAll([]string{
		"john", "went", "to", "the", "kitchen", "where", "is", "mary",
		"café", "supercalifragilisticexpialidocious-and-then-some",
	})
}

// FuzzTokenize: tokenization must never produce empty tokens or panic,
// and must be idempotent under re-joining. EncodeText must agree with
// its reference, EncodeStrict(Tokenize(s)) — same IDs, an error exactly
// when the reference errs, with the same text — and CountTokens with
// len(Tokenize(s)).
func FuzzTokenize(f *testing.F) {
	f.Add("Where is the TV?")
	f.Add("")
	f.Add("...!!!???")
	f.Add("ünïcödé wörds\tand\ntabs")
	v := fuzzVocab()
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, sep := range []byte{' ', '\t', '.', '?', ',', '!', '\n', '\r'} {
				for i := 0; i < len(tok); i++ {
					if tok[i] == sep {
						t.Fatalf("token %q contains separator %q", tok, sep)
					}
				}
			}
		}
		// Re-tokenizing a single token yields that token.
		for _, tok := range toks {
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				t.Fatalf("tokenization not idempotent for %q: %v", tok, again)
			}
		}
		if n := CountTokens(s); n != len(toks) {
			t.Fatalf("CountTokens(%q) = %d, len(Tokenize) = %d", s, n, len(toks))
		}

		want, wantErr := v.EncodeStrict(toks)
		got, gotErr := v.EncodeText(nil, s)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("EncodeText(%q) error %v, reference error %v", s, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("EncodeText(%q) error %q, reference %q", s, gotErr, wantErr)
		case gotErr != nil && len(got) != 0:
			t.Fatalf("EncodeText(%q) errored but appended %v", s, got)
		case !slices.Equal(got, want):
			t.Fatalf("EncodeText(%q) = %v, reference %v", s, got, want)
		}
		// Appending leaves the prefix alone, on success and on error.
		prefix := []int{7, 8}
		got, _ = v.EncodeText(prefix, s)
		if !slices.Equal(got[:2], prefix) || (gotErr == nil && !slices.Equal(got[2:], want)) || (gotErr != nil && len(got) != 2) {
			t.Fatalf("EncodeText(%v, %q) = %v, want the prefix then %v", prefix, s, got, want)
		}
	})
}
