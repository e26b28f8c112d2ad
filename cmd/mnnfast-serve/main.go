// Command mnnfast-serve exposes a trained memory network over HTTP —
// the interactive QA deployment of the paper's §4.1.1.
//
// Usage:
//
//	mnnfast-train -task single-fact -out model.gob
//	mnnfast-serve -model model.gob -addr :8080
//
//	curl -XPOST localhost:8080/v1/story \
//	     -d '{"sentences":["john went to the kitchen"]}'
//	curl -XPOST localhost:8080/v1/answer -d '{"question":"where is john?"}'
//	curl localhost:8080/v1/metrics          # Prometheus text exposition
//	curl localhost:8080/v1/statz            # JSON snapshot with percentiles
//
// Concurrent answers are micro-batched into one batched inference call
// per flush (the paper's §4.1.2 batching argument): whenever the
// dispatcher is free it flushes every queued answer, up to -batch-max
// (0 disables batching), so a lone answer never waits for company.
// -queue-depth is the admission bound — beyond it requests are shed
// with 429 + Retry-After. SIGINT/SIGTERM drain in-flight batches before
// exit.
//
// -parallelism N runs each flush's attention across N persistent
// workers on the work-stealing chunk scheduler (bit-identical results;
// scheduler counters appear under mnnfast_sched_* in /v1/metrics).
//
// -pprof exposes net/http/pprof under /debug/pprof/ and -access-log
// emits one structured line per request. Without -model, a small
// single-fact model is trained at startup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mnnfast/internal/babi"
	"mnnfast/internal/batcher"
	"mnnfast/internal/memnn"
	"mnnfast/internal/server"
)

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers and readTimeout to finish the body — generous, since a
// full-length story is megabytes (the server caps the size itself, see
// server.decodeBody) — and an idle keep-alive connection is closed after
// idleTimeout. Constants, not flags: they bound stalled clients, not a
// workload.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		modelPath   = flag.String("model", "", "model file from mnnfast-train (default: train one now)")
		addr        = flag.String("addr", ":8080", "listen address")
		skip        = flag.Float64("skip", 0, "zero-skipping threshold for inference (0 = exact)")
		enablePprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		accessLog   = flag.Bool("access-log", false, "log one structured line per request to stderr")
		batchMax    = flag.Int("batch-max", batcher.DefaultMaxBatch, "micro-batch flush size for /v1/answer (0 = no batching)")
		queueDepth  = flag.Int("queue-depth", 0, "bounded answer queue; beyond it requests get 429 (0 = 4x batch-max)")
		parallelism = flag.Int("parallelism", 0, "worker count for intra-query parallel attention (0 = serial; try runtime.NumCPU())")
		enableTrace = flag.Bool("trace", true, "record request-scoped span traces into an in-memory flight recorder (GET /v1/traces)")
		traceKeep   = flag.Int("trace-keep", 0, "flight-recorder capacity in traces (0 = default 128)")
		traceSample = flag.Int("trace-sample", 0, "keep 1 in N traces that are neither errored nor slow; 1 keeps all (0 = default 16)")
		pprofLabels = flag.Bool("pprof-labels", false, "attach handler/session pprof labels to request goroutines (for CPU profile attribution)")
		earlyExit   = flag.String("early-exit", "", "confidence metric for early hop exit: margin, maxprob, or attnmax (empty = run every hop)")
		exitThresh  = flag.Float64("exit-threshold", 0.9, "confidence at or above which remaining hops are skipped")
		exitMinHops = flag.Int("exit-min-hops", 1, "earliest hop the gate may exit after")
		exitFall    = flag.Float64("exit-fallback", 0, "confidence below which a question commits to the full hop path (0 = keep gating)")
		attention   = flag.String("attention", "exact", "attention mode: exact, or topk (IVF-indexed approximate top-k over each session story)")
		topkK       = flag.Int("topk-k", 32, "topk mode: attention survivors per hop (0 = keep every probed candidate)")
		topkNProbe  = flag.Int("topk-nprobe", 0, "topk mode: inverted lists probed per hop (0 = nlist/16, min 1)")
		topkMinRows = flag.Int("topk-min-rows", 0, "topk mode: stories below this many sentences run exact attention (0 = default 256)")
	)
	flag.Parse()

	model, corpus, err := obtainModel(*modelPath)
	if err != nil {
		log.Fatal("mnnfast-serve: ", err)
	}
	srv, err := server.New(model, corpus)
	if err != nil {
		log.Fatal("mnnfast-serve: ", err)
	}
	srv.SkipThreshold = float32(*skip)
	switch *attention {
	case "exact":
	case "topk":
		model.SetTopK(memnn.TopKConfig{
			Enabled: true,
			K:       *topkK,
			NProbe:  *topkNProbe,
			MinRows: *topkMinRows,
		})
		floor := *topkMinRows
		if floor <= 0 {
			floor = memnn.DefaultTopKMinRows
		}
		log.Printf("topk attention: k %d, nprobe %d (0 = nlist/16), exact below %d rows (probe counters under mnnfast_topk_probed_rows)",
			*topkK, *topkNProbe, floor)
	default:
		log.Fatalf("mnnfast-serve: unknown -attention mode %q (want exact or topk)", *attention)
	}
	if *earlyExit != "" {
		metric, err := memnn.ParseExitMetric(*earlyExit)
		if err != nil {
			log.Fatal("mnnfast-serve: ", err)
		}
		policy := memnn.ExitPolicy{
			Metric:    metric,
			Threshold: float32(*exitThresh),
			MinHops:   *exitMinHops,
			Fallback:  float32(*exitFall),
		}
		if err := policy.Validate(); err != nil {
			log.Fatal("mnnfast-serve: ", err)
		}
		srv.ExitPolicy = policy
		log.Printf("early exit: metric %s, threshold %g, min hops %d (per-hop exits under mnnfast_early_exits_total)",
			metric, *exitThresh, *exitMinHops)
	}
	if *accessLog {
		srv.AccessLog = log.New(os.Stderr, "", log.LstdFlags)
	}
	if *batchMax > 0 {
		srv.EnableBatching(server.BatchOptions{
			MaxBatch:   *batchMax,
			QueueDepth: *queueDepth,
		})
		log.Printf("micro-batching: flush what is queued when the dispatcher is free, max batch %d", *batchMax)
	}
	if *parallelism > 0 {
		if err := srv.EnableParallelism(*parallelism); err != nil {
			log.Fatal("mnnfast-serve: ", err)
		}
		log.Printf("parallel attention: %d workers (work-stealing chunk scheduler; results bit-identical to serial)", *parallelism)
	}
	if *enableTrace {
		srv.EnableTracing(server.TraceOptions{
			Capacity:    *traceKeep,
			SampleEvery: *traceSample,
		})
		log.Printf("tracing: flight recorder enabled; span trees at /v1/traces (Perfetto via ?format=chrome)")
	}
	srv.PprofLabels = *pprofLabels

	root := http.NewServeMux()
	root.Handle("/", srv.Handler())
	if *enablePprof {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof enabled at /debug/pprof/")
	}

	log.Printf("serving on %s (vocab %d, answers %d, hops %d); metrics at /v1/metrics",
		*addr, corpus.Vocab.Size(), len(corpus.Answers), model.Cfg.Hops)

	// Serve until SIGINT/SIGTERM, then drain: stop accepting
	// connections, finish in-flight requests, and flush any queued
	// answer batches before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		// No WriteTimeout: it would also bound the handler, and the first
		// answer after a large story change embeds the story and, in
		// topk mode, builds its index before replying — seconds at
		// 10^5..10^6 sentences. The read side is where a client can
		// stall a connection, and that is bounded above.
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal("mnnfast-serve: ", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining connections and queued batches")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mnnfast-serve: shutdown: %v", err)
	}
	srv.Close()
}

func obtainModel(path string) (*memnn.Model, *memnn.Corpus, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return memnn.Load(f)
	}
	fmt.Println("no -model given; training a small single-fact model...")
	opt := babi.GenOptions{Stories: 600, StoryLen: 12, People: 6, Locations: 6}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(7)))
	train, test := d.Split(0.9)
	corpus := memnn.BuildCorpus(train, test, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim: 24, Hops: 2,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, nil, err
	}
	topt := memnn.DefaultTrainOptions()
	topt.Epochs = 40
	if _, err := model.Train(corpus.Train, topt); err != nil {
		return nil, nil, err
	}
	fmt.Printf("trained: test accuracy %.2f\n", model.Accuracy(corpus.Test, 0))
	return model, corpus, nil
}
