// Package vocab provides the text substrate for the MnnFast
// reproduction: a word vocabulary with stable integer IDs, a tokenizer
// for bAbI-style text, and a Zipfian word-frequency model that stands in
// for the Corpus of Contemporary American English (COCA) word-frequency
// data the paper drives its embedding-cache experiment with (§5.4.2).
package vocab

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// NilID is returned by Lookup for unknown words.
const NilID = -1

// Vocabulary maps words to dense integer IDs. ID 0 is reserved for the
// padding token so that fixed-width sentence encodings can zero-fill.
type Vocabulary struct {
	words map[string]int
	byID  []string
}

// PadToken is the reserved word at ID 0.
const PadToken = "<pad>"

// New returns a vocabulary containing only the padding token.
func New() *Vocabulary {
	v := &Vocabulary{words: make(map[string]int)}
	v.Add(PadToken)
	return v
}

// Add interns word and returns its ID, allocating a new ID for unseen
// words. Words are case-sensitive; callers normalize beforehand.
func (v *Vocabulary) Add(word string) int {
	if id, ok := v.words[word]; ok {
		return id
	}
	id := len(v.byID)
	v.words[word] = id
	v.byID = append(v.byID, word)
	return id
}

// Lookup returns the ID of word, or NilID if it was never added.
func (v *Vocabulary) Lookup(word string) int {
	if id, ok := v.words[word]; ok {
		return id
	}
	return NilID
}

// Word returns the word with the given ID. It panics on out-of-range
// IDs, which always indicate a programming error upstream.
func (v *Vocabulary) Word(id int) string {
	if id < 0 || id >= len(v.byID) {
		panic(fmt.Sprintf("vocab: Word(%d) out of range [0, %d)", id, len(v.byID)))
	}
	return v.byID[id]
}

// Size returns the number of interned words, including the pad token.
// This is the V dimension of the embedding matrix (ed×V in the paper).
func (v *Vocabulary) Size() int { return len(v.byID) }

// AddAll interns every word of every sentence and returns v for
// chaining.
func (v *Vocabulary) AddAll(sentences ...[]string) *Vocabulary {
	for _, s := range sentences {
		for _, w := range s {
			v.Add(w)
		}
	}
	return v
}

// Encode maps words to IDs, adding unknown words. It is the bag-of-words
// front end of the embedding operation.
func (v *Vocabulary) Encode(words []string) []int {
	ids := make([]int, len(words))
	for i, w := range words {
		ids[i] = v.Add(w)
	}
	return ids
}

// EncodeStrict maps words to IDs and returns an error naming the first
// unknown word instead of growing the vocabulary. Inference paths use it
// so that a trained model's vocabulary stays frozen.
func (v *Vocabulary) EncodeStrict(words []string) ([]int, error) {
	ids := make([]int, len(words))
	for i, w := range words {
		id := v.Lookup(w)
		if id == NilID {
			return nil, fmt.Errorf("vocab: unknown word %q", w)
		}
		ids[i] = id
	}
	return ids, nil
}

// EncodeText tokenizes s and maps its tokens to IDs in one pass,
// appending the IDs to dst: the IDs and the error are those of
// EncodeStrict(Tokenize(s)), and on error dst comes back at its original
// length. ASCII text costs no allocation per word — each token is looked
// up as a substring of s, or lowercased into a stack buffer when it has
// capitals — so the server can encode a whole story request into one
// id arena. Text with any byte >= 0x80 takes the reference path.
func (v *Vocabulary) EncodeText(dst []int, s string) ([]int, error) {
	n0 := len(dst)
	for i := 0; i < len(s); {
		if isSep(s[i]) {
			i++
			continue
		}
		start, upper := i, false
		for ; i < len(s) && !isSep(s[i]); i++ {
			c := s[i]
			if c >= utf8.RuneSelf {
				ids, err := v.EncodeStrict(Tokenize(s))
				if err != nil {
					return dst[:n0], err
				}
				return append(dst[:n0], ids...), nil
			}
			upper = upper || c-'A' < 26
		}
		id, ok := v.lookupASCII(s[start:i], upper)
		if !ok {
			return dst[:n0], fmt.Errorf("vocab: unknown word %q", strings.ToLower(s[start:i]))
		}
		dst = append(dst, id)
	}
	return dst, nil
}

// lookupASCII looks up the lower-case form of the ASCII word; upper says
// whether it has capitals to fold. Words up to 32 bytes fold into a stack
// buffer, which the map lookup reads without copying.
func (v *Vocabulary) lookupASCII(word string, upper bool) (int, bool) {
	var buf [32]byte
	switch {
	case !upper:
	case len(word) <= len(buf):
		b := buf[:len(word)]
		for j := range b {
			c := word[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b[j] = c
		}
		id, ok := v.words[string(b)]
		return id, ok
	default:
		word = strings.ToLower(word)
	}
	id, ok := v.words[word]
	return id, ok
}

// CountTokens returns len(Tokenize(s)) without tokenizing: the number of
// runs of non-separator bytes. Callers size an EncodeText arena with it.
func CountTokens(s string) int {
	n, in := 0, false
	for i := 0; i < len(s); i++ {
		word := !isSep(s[i])
		if word && !in {
			n++
		}
		in = word
	}
	return n
}

// sepMask has bit c set for each of Tokenize's separator bytes, all of
// which are below 64.
const sepMask uint64 = 1<<' ' | 1<<'\t' | 1<<'.' | 1<<'?' | 1<<',' | 1<<'!' | 1<<'\n' | 1<<'\r'

// isSep reports whether c is one of Tokenize's separators.
func isSep(c byte) bool {
	return c < 64 && sepMask>>c&1 != 0
}

// Words returns all interned words in ID order. The slice is a copy.
func (v *Vocabulary) Words() []string {
	out := make([]string, len(v.byID))
	copy(out, v.byID)
	return out
}

// Tokenize splits bAbI-style text into lower-case word tokens, treating
// '.', '?' and ',' as separators. It never returns empty tokens.
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r < utf8.RuneSelf && isSep(byte(r))
	})
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// SortedByWord returns the vocabulary's words in lexicographic order;
// useful for stable debugging output.
func (v *Vocabulary) SortedByWord() []string {
	out := v.Words()
	sort.Strings(out)
	return out
}
