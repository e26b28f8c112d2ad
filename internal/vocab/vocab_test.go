package vocab

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReservesPad(t *testing.T) {
	v := New()
	if v.Size() != 1 {
		t.Fatalf("new vocabulary size = %d, want 1 (pad only)", v.Size())
	}
	if v.Lookup(PadToken) != 0 {
		t.Errorf("pad token ID = %d, want 0", v.Lookup(PadToken))
	}
}

func TestAddIsIdempotent(t *testing.T) {
	v := New()
	a := v.Add("kitchen")
	b := v.Add("kitchen")
	if a != b {
		t.Errorf("Add returned %d then %d for the same word", a, b)
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d after one distinct Add, want 2", v.Size())
	}
}

func TestLookupUnknown(t *testing.T) {
	if got := New().Lookup("garden"); got != NilID {
		t.Errorf("Lookup(unknown) = %d, want NilID", got)
	}
}

func TestWordRoundTrip(t *testing.T) {
	v := New()
	id := v.Add("hallway")
	if got := v.Word(id); got != "hallway" {
		t.Errorf("Word(%d) = %q, want hallway", id, got)
	}
}

func TestWordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Word(99) did not panic")
		}
	}()
	New().Word(99)
}

func TestEncodeGrowsVocabulary(t *testing.T) {
	v := New()
	ids := v.Encode([]string{"john", "went", "to", "the", "kitchen"})
	if len(ids) != 5 {
		t.Fatalf("Encode returned %d ids", len(ids))
	}
	if v.Size() != 6 {
		t.Errorf("Size = %d, want 6", v.Size())
	}
	again := v.Encode([]string{"john", "kitchen"})
	if again[0] != ids[0] || again[1] != ids[4] {
		t.Error("re-encoding known words produced different IDs")
	}
}

func TestEncodeStrict(t *testing.T) {
	v := New()
	v.Encode([]string{"mary", "milk"})
	if _, err := v.EncodeStrict([]string{"mary", "milk"}); err != nil {
		t.Errorf("EncodeStrict on known words: %v", err)
	}
	if _, err := v.EncodeStrict([]string{"unseen"}); err == nil {
		t.Error("EncodeStrict accepted an unknown word")
	}
	if v.Size() != 3 {
		t.Errorf("EncodeStrict grew the vocabulary to %d", v.Size())
	}
}

// TestEncodeTextAllocs: on ASCII text with room in dst, EncodeText
// allocates nothing, capitals and all.
func TestEncodeTextAllocs(t *testing.T) {
	v := fuzzVocab()
	dst := make([]int, 0, 16)
	for _, s := range []string{"John went to the kitchen.", "WHERE IS MARY?"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := v.EncodeText(dst, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("EncodeText(%q) allocates %v per call, want 0", s, allocs)
		}
	}
}

func TestAddAllAndWords(t *testing.T) {
	v := New().AddAll([]string{"a", "b"}, []string{"b", "c"})
	if v.Size() != 4 {
		t.Fatalf("Size = %d, want 4", v.Size())
	}
	words := v.Words()
	words[0] = "mutated"
	if v.Word(0) != PadToken {
		t.Error("Words() must return a copy")
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"John went to the kitchen.", []string{"john", "went", "to", "the", "kitchen"}},
		{"Where is the TV?", []string{"where", "is", "the", "tv"}},
		{"", nil},
		{"  .?,  ", nil},
		{"a,b.c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestQuickTokenizeNoEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortedByWord(t *testing.T) {
	v := New().AddAll([]string{"zebra", "apple"})
	sorted := v.SortedByWord()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("SortedByWord not sorted: %v", sorted)
		}
	}
}

func TestZipfCDFProperties(t *testing.T) {
	m := NewZipfModel(1000, 1.0)
	var sum float64
	prev := 0.0
	for k := 0; k < m.V; k++ {
		p := m.Probability(k)
		if p < 0 {
			t.Fatalf("negative probability at rank %d", k)
		}
		if k > 0 && p > prev+1e-12 {
			t.Fatalf("probability not monotone non-increasing at rank %d: %g > %g", k, p, prev)
		}
		prev = p
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g, want 1", sum)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	flat := NewZipfModel(100, 0)
	skewed := NewZipfModel(100, 1.2)
	if flat.Probability(0) >= skewed.Probability(0) {
		t.Errorf("skewed model should concentrate more mass on rank 0: flat=%g skewed=%g",
			flat.Probability(0), skewed.Probability(0))
	}
	if math.Abs(flat.Probability(0)-0.01) > 1e-9 {
		t.Errorf("s=0 should be uniform: P(0) = %g", flat.Probability(0))
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	m := NewZipfModel(50, 1.0)
	rng := rand.New(rand.NewSource(9))
	const n = 200000
	counts := make([]int, m.V)
	for i := 0; i < n; i++ {
		counts[m.Sample(rng)]++
	}
	// Empirical frequency of rank 0 should match the model within a few
	// standard deviations.
	p0 := m.Probability(0)
	emp := float64(counts[0]) / n
	sd := math.Sqrt(p0 * (1 - p0) / n)
	if math.Abs(emp-p0) > 6*sd {
		t.Errorf("rank-0 empirical frequency %g too far from model %g (sd %g)", emp, p0, sd)
	}
	// Rank ordering should hold for the head of the distribution.
	if counts[0] < counts[10] {
		t.Errorf("rank 0 sampled less often than rank 10: %d < %d", counts[0], counts[10])
	}
}

func TestZipfStreamLengthAndRange(t *testing.T) {
	m := NewZipfModel(30, 1.0)
	s := m.Stream(rand.New(rand.NewSource(1)), 1234)
	if len(s) != 1234 {
		t.Fatalf("Stream length = %d", len(s))
	}
	for _, r := range s {
		if r < 0 || r >= 30 {
			t.Fatalf("sampled rank %d out of range", r)
		}
	}
}

func TestZipfTopMass(t *testing.T) {
	m := NewZipfModel(100, 1.0)
	if got := m.TopMass(0); got != 0 {
		t.Errorf("TopMass(0) = %g", got)
	}
	if got := m.TopMass(100); got != 1 {
		t.Errorf("TopMass(V) = %g, want 1", got)
	}
	if got := m.TopMass(1000); got != 1 {
		t.Errorf("TopMass(>V) = %g, want 1", got)
	}
	if m.TopMass(10) <= m.TopMass(5) {
		t.Error("TopMass must be strictly increasing on the head")
	}
	// With s=1 and V=100 the top 10 words carry well over a third of the
	// mass — this skew is what makes small embedding caches effective.
	if m.TopMass(10) < 0.35 {
		t.Errorf("TopMass(10) = %g, expected heavy head", m.TopMass(10))
	}
}

func TestZipfInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfModel(0, 1) did not panic")
		}
	}()
	NewZipfModel(0, 1)
}
