package main

import (
	"encoding/json"
	"math/rand"
	"strings"
	"time"

	"mnnfast/internal/babi"
	"mnnfast/internal/server"
)

// workload is one traffic mix. Server flags not named here stay at the
// mnnfast-serve defaults (tracing on, sample 16; exact attention).
type workload struct {
	Name    string
	Why     string
	Long    bool // session stories have cfg.Rows sentences instead of shortStory
	Batched bool // all-default batching (max 8, wait 2 ms) instead of -batch-max 0
	TopK    bool // -attention=topk -topk-k 32, default nprobe
	Churn   bool // writes beside reads (see stream.next)
}

// workloads is the benchmark's traffic-mix table; BENCHMARK.json and
// the README repeat the names and reasons.
var workloads = []workload{
	{Name: "short_unbatched", Why: "12-sentence stories, batching off: attention is ~nothing, so server, vocab, trace and HTTP/JSON transport do the work; bypass workload for attention changes"},
	{Name: "short_batched", Batched: true, Why: "same requests with default batching (max 8, wait 2 ms): nproc callers never fill a flush, so batcher queue wait dominates"},
	{Name: "long_exact", Long: true, Why: "one 32768-sentence story per session, exact attention: memnn hop loop over tensor MatVec/Softmax/Axpy, working set beyond L2 (memory-bound regime)"},
	{Name: "long_topk", Long: true, TopK: true, Why: "same stories and questions as long_exact with -attention=topk -topk-k 32: sparse probe+attend dominates; answer_agreement can fall below 1"},
	{Name: "churn_topk", TopK: true, Churn: true, Why: "topk with writes beside reads: append 16 sentences, one cache-miss answer (re-embed + IVF rebuild), 8 cache-hit answers; shows build-vs-probe trades and stale serving"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	shortStory  = 12 // sentences per short_* session story
	churnAppend = 16 // sentences appended per churn cycle
	churnReads  = 8  // cache-hit answers per churn cycle, after the cache-miss one
	topkK       = 32 // -topk-k
)

// config sizes a run. The full configuration is the benchmark; quick is
// the same code at sizes `go test` can afford.
type config struct {
	Quick      bool
	Seed       int64
	Window     time.Duration // measured window per workload
	Rows       int           // widened temporal rows = long story length
	ChurnBase  int           // churn story length after a reset
	ChurnLimit int           // churn story length that triggers the reset
	SetupReps  int           // set-ups per run; setup_s is their median
	MinCalls   int           // samples per layer probe (a tenth for calls over 10 ms)
	Ingests    int           // least story replacements per session in the ingest phase
	IngestMin  time.Duration // least duration of the ingest phase
}

func newConfig(quick bool, seed int64, seconds float64) config {
	c := config{
		Seed: seed, Window: time.Duration(seconds * float64(time.Second)),
		Rows: 32768, ChurnBase: 2048, ChurnLimit: 4096,
		SetupReps: 3, MinCalls: 200, Ingests: 12, IngestMin: 3 * time.Second,
	}
	if quick {
		c.Quick = true
		c.Rows, c.ChurnBase, c.ChurnLimit = 2048, 256, 512
		c.SetupReps, c.MinCalls, c.Ingests, c.IngestMin = 1, 20, 2, 50*time.Millisecond
	}
	return c
}

// warmup is the unmeasured lead-in before each measured window.
func (c config) warmup() time.Duration {
	w := c.Window / 5
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

func (c config) storyLen(w workload) int {
	switch {
	case w.Long:
		return c.Rows
	case w.Churn:
		return c.ChurnBase
	}
	return shortStory
}

type opKind uint8

const (
	opStory opKind = iota
	opAnswer
)

// op is one generated request: the server sees Body and nothing else.
type op struct {
	Kind     opKind
	Body     []byte
	Question int // opAnswer: index into questions
}

func (o op) path() string {
	if o.Kind == opStory {
		return "/v1/story"
	}
	return "/v1/answer"
}

// storyOp is one story mutation a stream issued: N fresh sentences,
// replacing the story or appended to it. The log of them is all the
// answer check needs to rebuild the story every answer was asked
// against, because the sentences come from a generator of their own
// (replay); keeping the sentences themselves would put gigabytes of
// strings in front of the garbage collector of the system under test.
type storyOp struct {
	Reset bool
	N     int
}

// stream is one session's request generator. Everything it emits is a
// function of (seed, workload, client index): the two generators are
// the only source of randomness, and neither the clock nor a response
// feeds back into them.
type stream struct {
	seed     int64
	stories  *rand.Rand // draws story sentences
	asks     *rand.Rand // draws questions
	w        workload
	storyLen int // sentences in a freshly loaded story
	limit    int // churn reset threshold

	n     int           // current story length
	reads int           // churn: answers left before the next write
	Log   []storyOp     // every story op issued so far; len(Log)-1 is the story version
	Last  []string      // the sentences of the latest story op
	GenT  time.Duration // time spent generating and encoding story ops
}

// sentences draws n single-fact sentences; every word is in the frozen
// vocabulary of the obtainModel recipe (same task, people and places).
func sentences(rng *rand.Rand, n int) []string {
	opt := babi.GenOptions{Stories: 1, StoryLen: n, People: 6, Locations: 6}
	story := babi.Generate(babi.TaskSingleFact, opt, rng).Stories[0]
	out := make([]string, n) // the generator may add one trailing sentence; drop it
	for i := range out {
		out[i] = strings.Join(story.Sentences[i], " ")
	}
	return out
}

// questions is everything a single-fact session can ask: where each of
// the generator's six people is. Asking about someone the story never
// mentions is allowed; a name the model does not know would be a 422.
var questions = func() (qs []string) {
	for _, p := range []string{"john", "mary", "sandra", "daniel", "emily", "frank"} {
		qs = append(qs, "where is "+p+"?")
	}
	return qs
}()

var questionBodies = func() (bodies [][]byte) {
	for _, q := range questions {
		bodies = append(bodies, mustJSON(server.AnswerRequest{Question: q}))
	}
	return bodies
}()

func newStream(cfg config, w workload, client int) *stream {
	// Distinct, reproducible sub-seed per (seed, client); workloads that
	// share a shape (short_*, long_*) get identical streams on purpose.
	seed := cfg.Seed*1_000_003 + int64(client)
	return &stream{
		seed: seed, stories: storyRand(seed), asks: rand.New(rand.NewSource(seed + 500_000)),
		w: w, storyLen: cfg.storyLen(w), limit: cfg.ChurnLimit,
	}
}

func storyRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// replay calls visit with the sentences of every story op the stream
// has issued, in order, drawing them again from a generator started at
// the stream's seed.
func (s *stream) replay(visit func(version int, o storyOp, sents []string)) {
	rng := storyRand(s.seed)
	for v, o := range s.Log {
		visit(v, o, sentences(rng, o.N))
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings: cannot fail
	}
	return b
}

// story emits a story op of n fresh sentences: the whole story when
// reset is set, an append otherwise.
func (s *stream) story(reset bool, n int) op {
	t0 := time.Now()
	s.Last = sentences(s.stories, n)
	if reset {
		s.n = 0
	}
	s.n += n
	s.reads = 1 + churnReads // only a churn stream counts them down
	s.Log = append(s.Log, storyOp{Reset: reset, N: n})
	o := op{Kind: opStory, Body: mustJSON(server.StoryRequest{Sentences: s.Last, Reset: reset})}
	s.GenT += time.Since(t0)
	return o
}

// load replaces the session story with a fresh one.
func (s *stream) load() op { return s.story(true, s.storyLen) }

func ask(q int) op { return op{Kind: opAnswer, Body: questionBodies[q], Question: q} }

// next is the steady-state request sequence: questions only, except on
// a churn workload, where every 1+churnReads answers are preceded by a
// write — an append of churnAppend sentences, or a fresh base story once
// the append would pass the limit.
func (s *stream) next() op {
	if s.w.Churn {
		switch {
		case s.reads > 0:
			s.reads--
		case s.n+churnAppend > s.limit:
			return s.load()
		default:
			return s.story(false, churnAppend)
		}
	}
	return ask(s.asks.Intn(len(questions)))
}

// version identifies the story the next answer is asked against.
func (s *stream) version() int32 { return int32(len(s.Log) - 1) }
