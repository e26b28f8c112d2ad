package memnn

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report breaks accuracy down per answer class — the view that exposes
// which classes zero-skipping harms (e.g., counting answers) when the
// aggregate number hides it.
type Report struct {
	Overall float64
	// PerAnswer maps answer word → (correct, total) on the evaluated
	// set.
	PerAnswer map[string][2]int
	// Confusions counts the most frequent (gold answer → predicted)
	// errors.
	Confusions map[[2]string]int
}

// Evaluate builds a Report over the examples with zero-skipping at
// threshold (0 = exact).
func (m *Model) Evaluate(c *Corpus, examples []Example, threshold float32) *Report {
	r := &Report{
		PerAnswer:  make(map[string][2]int),
		Confusions: make(map[[2]string]int),
	}
	correct := 0
	var f Forward
	for _, ex := range examples {
		pred := m.PredictGated(ex, threshold, ExitPolicy{}, &f, nil, nil)
		gold := c.AnswerWord(ex.Answer)
		pa := r.PerAnswer[gold]
		pa[1]++
		if pred == ex.Answer {
			pa[0]++
			correct++
		} else {
			r.Confusions[[2]string{gold, c.AnswerWord(pred)}]++
		}
		r.PerAnswer[gold] = pa
	}
	if len(examples) > 0 {
		r.Overall = float64(correct) / float64(len(examples))
	}
	return r
}

// Fprint writes a human-readable breakdown: per-answer accuracy in
// descending-frequency order and the top confusions.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "overall accuracy: %.3f\n", r.Overall)

	answers := make([]string, 0, len(r.PerAnswer))
	for a := range r.PerAnswer {
		answers = append(answers, a)
	}
	sort.Slice(answers, func(i, j int) bool {
		ci, cj := r.PerAnswer[answers[i]], r.PerAnswer[answers[j]]
		if ci[1] != cj[1] {
			return ci[1] > cj[1]
		}
		return answers[i] < answers[j]
	})
	fmt.Fprintln(w, "per-answer accuracy:")
	for _, a := range answers {
		c := r.PerAnswer[a]
		fmt.Fprintf(w, "  %-12s %4d/%-4d (%.2f)\n", a, c[0], c[1], float64(c[0])/float64(c[1]))
	}

	if len(r.Confusions) > 0 {
		type conf struct {
			pair  [2]string
			count int
		}
		confs := make([]conf, 0, len(r.Confusions))
		for p, n := range r.Confusions {
			confs = append(confs, conf{p, n})
		}
		sort.Slice(confs, func(i, j int) bool {
			if confs[i].count != confs[j].count {
				return confs[i].count > confs[j].count
			}
			return confs[i].pair[0]+confs[i].pair[1] < confs[j].pair[0]+confs[j].pair[1]
		})
		if len(confs) > 5 {
			confs = confs[:5]
		}
		fmt.Fprintln(w, "top confusions (gold → predicted):")
		for _, c := range confs {
			fmt.Fprintf(w, "  %s → %s: %d\n", c.pair[0], c.pair[1], c.count)
		}
	}
}

// String renders the report.
//
//mnnfast:coldpath
func (r *Report) String() string {
	var sb strings.Builder
	r.Fprint(&sb)
	return sb.String()
}
