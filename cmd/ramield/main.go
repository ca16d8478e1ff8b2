// Command ramield is the Ramiel inference-serving daemon: it preloads zoo
// and/or ONNX-subset models, compiles each requested (model, batch) variant
// exactly once, and serves concurrent HTTP/JSON inference with dynamic
// micro-batching through hyperclustered plans (Section III-E). Requests
// execute on pooled ramiel.Sessions with warm per-session arenas, and the
// HTTP request context propagates into the run: a client that disconnects
// or exceeds its deadline aborts its in-flight execution instead of
// holding a worker slot to completion. A panicking kernel fails only its
// own request — the recovered panic comes back as a cause-labeled 500
// (stack logged, panics_total counted) while the worker pool keeps serving.
//
// Examples:
//
//	ramield -models squeezenet,googlenet
//	ramield -models bert -prune -max-batch 8 -flush 3ms -switched
//	ramield -models squeezenet -max-batch 4,squeezenet=8 -flush 2ms,squeezenet=500us
//	ramield -load mymodel=path/to/model.onnx.json.gz -addr :9090
//
//	curl localhost:8080/v1/models
//	curl -X POST localhost:8080/v1/infer -d '{"model":"squeezenet","seed":1}'
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/trace?n=20        # recent request spans
//	curl localhost:8080/v1/trace?slow=1      # tail-latency offenders
//	curl localhost:8080/v1/stats?calibration=1   # measured vs static op cost
//	curl 'localhost:8080/v1/timeline?model=squeezenet' > trace.json  # Perfetto
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/readyz               # readiness (preload compiled)
//
// Batching: -max-batch and -flush take a global value plus optional
// per-model overrides ("4,bert=8"). With -adaptive (the default) the flush
// value is only the window cap — the batcher picks the actual window per
// model from live inter-arrival and execution histograms, flushing early
// at low load and growing batches under pressure; -adaptive=false restores
// the static flush timeout as a manual fallback.
//
// Fleet: ramield serves one runtime. cmd/ramielfe fronts several — one
// ramield per host, or in-process replicas with -inproc N — with routing,
// admission, retries and circuit breakers.
//
// On SIGTERM/SIGINT the daemon drains: /readyz flips to 503 first (so load
// balancers stop routing), then the listener closes gracefully and
// in-flight requests run to completion before the runtime shuts down.
//
// Resource governance is on by default: the daemon detects the tightest
// cgroup/system memory limit and budgets 80% of it (-mem-budget overrides
// in bytes; negative disables). The budget drives
// memory-feasibility admission (429 cause "memory" with a Retry-After
// drain estimate), caps the session arenas (a run outgrowing the budget
// mid-flight fails alone with cause "memory" and its session is released
// to the GC), and feeds the /v1/stats headroom gauge fleet fronts route
// on. A stuck-run watchdog force-cancels any run exceeding -watchdog times
// the model's live p99 execution time (floored at -watchdog-floor), so a
// pathological input degrades one request instead of wedging a worker.
// Input hardening: request bodies are capped at -max-body (413 cause
// "body_too_large") and feeds containing NaN/Inf are always rejected (400
// cause "validation").
//
// Telemetry (stage-latency histograms, request tracing) is always on and
// costs no allocations per request; -obs=false switches it off for A/B
// overhead measurements. -timeline N additionally samples every Nth plan
// execution into the per-op timeline flight recorder (sampled runs allocate,
// so it defaults to off); the latest sampled run is exported as Chrome
// trace-event JSON at GET /v1/timeline. -pprof additionally mounts
// net/http/pprof under /debug/pprof/ for live CPU and heap profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	ramiel "repro"
	"repro/internal/serve"
)

// parseTuning splits a "global,model=value,..." flag into the global part
// and per-model overrides. Items without '=' (re)set the global value.
func parseTuning(spec string) (global string, overrides map[string]string, err error) {
	overrides = map[string]string{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if model, val, ok := strings.Cut(item, "="); ok {
			if model == "" || val == "" {
				return "", nil, fmt.Errorf("%q: want model=value", item)
			}
			overrides[model] = val
		} else {
			global = item
		}
	}
	return global, overrides, nil
}

// batchTuning resolves the -max-batch and -flush flag grammars into the
// global config values plus a per-model serve.BatchTuning map.
func batchTuning(maxBatchSpec, flushSpec string) (maxBatch int, flush time.Duration, perModel map[string]serve.BatchTuning, err error) {
	mbGlobal, mbOver, err := parseTuning(maxBatchSpec)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("-max-batch %v", err)
	}
	flGlobal, flOver, err := parseTuning(flushSpec)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("-flush %v", err)
	}
	if mbGlobal != "" {
		if maxBatch, err = strconv.Atoi(mbGlobal); err != nil {
			return 0, 0, nil, fmt.Errorf("-max-batch %q: %v", mbGlobal, err)
		}
	}
	if flGlobal != "" {
		if flush, err = time.ParseDuration(flGlobal); err != nil {
			return 0, 0, nil, fmt.Errorf("-flush %q: %v", flGlobal, err)
		}
	}
	perModel = map[string]serve.BatchTuning{}
	for model, val := range mbOver {
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("-max-batch %s=%q: %v", model, val, err)
		}
		t := perModel[model]
		t.MaxBatch = n
		perModel[model] = t
	}
	for model, val := range flOver {
		d, err := time.ParseDuration(val)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("-flush %s=%q: %v", model, val, err)
		}
		t := perModel[model]
		t.FlushTimeout = d
		perModel[model] = t
	}
	if len(perModel) == 0 {
		perModel = nil
	}
	return maxBatch, flush, perModel, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ramield: ")

	addr := flag.String("addr", ":8080", "listen address")
	modelsFlag := flag.String("models", "squeezenet,googlenet",
		"comma-separated zoo models to serve ("+strings.Join(ramiel.ModelNames(), ", ")+"); empty for all")
	loads := flag.String("load", "", "comma-separated name=path pairs of ONNX-subset model files to serve")
	img := flag.Int("img", 32, "image size for zoo vision models")

	workers := flag.Int("workers", 0, "concurrent plan executions (0 = GOMAXPROCS)")
	maxBatchSpec := flag.String("max-batch", "4", `micro-batch cap, with optional per-model overrides "4,bert=8" (1 disables coalescing)`)
	flushSpec := flag.String("flush", "2ms", `micro-batch flush window, with optional per-model overrides "2ms,bert=500us" (the cap when -adaptive)`)
	adaptive := flag.Bool("adaptive", true, "latency-aware flush windows from live queue/exec histograms (-flush becomes the cap)")
	memBudget := flag.Int64("mem-budget", 0, "memory budget in bytes for admission + arena caps (0 = 80% of cgroup/system memory; negative disables)")
	watchdogF := flag.Float64("watchdog", 0, "kill runs exceeding this multiple of the model's live p99 exec time (0 = 20; negative disables)")
	watchdogFloor := flag.Duration("watchdog-floor", 0, "minimum run age before the watchdog may kill (0 = 2s)")
	maxBody := flag.Int64("max-body", 0, "POST /v1/infer request-body cap in bytes (0 = 8 MiB; negative disables)")
	switched := flag.Bool("switched", false, "use switched hyperclustering for batch plans")
	arena := flag.Bool("arena", true, "arena-backed execution: recycle intermediate tensors across requests")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	prune := flag.Bool("prune", false, "compile with constant propagation + DCE")
	clone := flag.Bool("clone", false, "compile with limited task cloning")
	fusion := flag.Bool("fusion", true, "compile with operator fusion (BN folding, kernel epilogues, fused elementwise chains)")
	warm := flag.Bool("warm", true, "precompile batch-1 programs at startup")
	obsOn := flag.Bool("obs", true, "serve-layer telemetry: stage-latency histograms and request tracing")
	timelineEvery := flag.Int("timeline", 0, "sample every Nth execution into the timeline flight recorder (0 disables; exported at GET /v1/timeline)")
	traceDepth := flag.Int("trace-depth", 256, "request-trace ring capacity (recent and slow rings)")
	slowTrace := flag.Duration("slow-trace", 100*time.Millisecond, "e2e latency at which a request also enters the slow-trace ring")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	maxBatch, flush, perModel, err := batchTuning(*maxBatchSpec, *flushSpec)
	if err != nil {
		log.Fatal(err)
	}

	budget := *memBudget
	if budget == 0 {
		budget = serve.DetectMemoryBudget(0)
	}
	if budget < 0 {
		budget = 0
	}

	cfg := serve.Config{
		Workers:       *workers,
		MaxBatch:      maxBatch,
		FlushTimeout:  flush,
		AdaptiveBatch: *adaptive,
		ModelTuning:   perModel,
		Switched:      *switched,
		Deadline:      *deadline,
		NoArena:       !*arena,
		NoObs:         !*obsOn,
		TraceDepth:    *traceDepth,
		SlowThreshold: *slowTrace,
		TimelineEvery: *timelineEvery,
		Compile:       ramiel.Options{Prune: *prune, Clone: *clone, DisableFusion: !*fusion},

		MemBudgetBytes: budget,
		WatchdogFactor: *watchdogF,
		WatchdogFloor:  *watchdogFloor,
		MaxBodyBytes:   *maxBody,
	}
	if budget > 0 {
		log.Printf("memory budget: %d MiB", budget>>20)
	}

	var zoo []string
	if *modelsFlag != "" {
		zoo = strings.Split(*modelsFlag, ",")
	}

	srv := serve.New(cfg)
	if err := srv.RegisterZoo(ramiel.ModelConfig{ImageSize: *img}, zoo...); err != nil {
		log.Fatal(err)
	}
	for _, pair := range strings.Split(*loads, ",") {
		if pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("-load %q: want name=path", pair)
		}
		g, err := ramiel.LoadModel(path)
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
		srv.RegisterGraph(name, g)
	}

	if *warm {
		// /readyz stays 503 until the preload set compiled: a deployment
		// rolling the daemon knows not to route traffic at a
		// still-compiling instance.
		warmStart := time.Now()
		if err := srv.Warm(); err != nil {
			log.Fatalf("warmup: %v", err)
		}
		log.Printf("warmed %d models in %v", len(srv.Registry().Models()),
			time.Since(warmStart).Round(time.Millisecond))
	} else {
		// No preload set to wait for; ready as soon as we can listen.
		srv.MarkReady()
	}

	handler := srv.Handler()
	log.Printf("serving %v on %s (max-batch %s, flush %s, adaptive %v, arena %v, fusion %v, obs %v, timeline %d)",
		srv.Registry().Models(), *addr, *maxBatchSpec, *flushSpec,
		*adaptive, *arena, *fusion, *obsOn, *timelineEvery)

	if *pprofOn {
		// The API mux must not import pprof unconditionally (its blank
		// import mounts handlers on DefaultServeMux); register explicitly,
		// behind the flag, on our own mux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain order matters: flip readiness first so health checks pull this
	// instance out of rotation, then close the listener gracefully (lets
	// in-flight requests finish), then shut the runtime down.
	log.Print("shutting down: draining")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(shutdownCtx); err != nil {
		log.Printf("runtime shutdown: %v", err)
	}
	fmt.Println("bye")
}
