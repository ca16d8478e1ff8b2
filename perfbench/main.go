// Command perfbench is the repository benchmark. It drives the real
// ramield/ramielfe daemons over loopback HTTP with pre-encoded requests,
// checks every response against a reference computed by an independent
// interpreter, and prints end-to-end metrics (--trace 0) or per-layer
// metrics from an in-process traced run (--trace 1). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Run it from the repository root through run.sh, which builds the daemons
// and this program from the same checkout:
//
//	bash perfbench/run.sh --workload squeezenet-wire --seed 1 --seconds 20 --trace 0
//
// The workloads, their daemon flags, traffic shapes and latency limits are
// in workloads.json; the metric names and units in metrics.go.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // short run: one set-up, no minimum request count
	binDir   string // directory holding the built ramield and ramielfe
	root     string // repository checkout the daemons were built from
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "short smoke run: one daemon set-up and no minimum request count")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the built ramield and ramielfe binaries")
	flag.StringVar(&o.root, "root", ".", "repository checkout the binaries were built from")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.binDir == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// Result is the final line of the benchmark's output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one named metric with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run, writes its report to out (the JSON
// result last) and returns the result.
func run(ctx context.Context, o options, out io.Writer) (*Result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	w, err := cfg.workload(o.workload)
	if err != nil {
		return nil, err
	}
	// Every run must end within 180 s; leave room for shutting down.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	start := time.Now()
	rs, err := buildRequests(w, o.seed, cfg.InputsPerModel)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# workload %s seed %d: %d inputs per model, references from exec.RunSequential on the uncompiled graphs in %.2fs\n",
		w.Name, o.seed, cfg.InputsPerModel, time.Since(start).Seconds())

	var rep *report
	if o.trace {
		rep, err = traceRun(ctx, o, cfg, w, rs, procs)
	} else {
		rep, err = loadRun(ctx, o, cfg, w, rs, procs)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if o.trace {
		want = perLayer()
	}
	if err := rep.check(want); err != nil {
		return nil, err
	}
	host := hostRecord(o.root, procs, rep.argv)
	hj, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Fprintf(out, "# host %s\n", hj)
	for _, line := range rep.lines {
		fmt.Fprintf(out, "# %s\n", line)
	}
	res := &Result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]MetricValue{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "# %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = MetricValue{Value: m.Value, Unit: m.Unit}
	}
	if rep.wrong > 0 {
		fmt.Fprintf(out, "# FAIL: %d wrong outputs\n", rep.wrong)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", rj)
	return res, nil
}

// report is what a run measured, before printing.
type report struct {
	metrics   []Metric
	lines     []string // human-readable detail, printed as comments
	attempted int
	failed    int
	wrong     int
	argv      []string // the daemon's exact command line
}

func (r *report) add(name string, value float64) {
	r.metrics = append(r.metrics, Metric{Name: name, Value: value, Unit: unitOf(name)})
}

// check verifies that the report holds exactly the named metrics, each a
// finite number.
func (r *report) check(names []string) error {
	got := map[string]bool{}
	for _, m := range r.metrics {
		if got[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		got[m.Name] = true
	}
	for _, n := range names {
		if !got[n] {
			return fmt.Errorf("metric %s missing", n)
		}
		delete(got, n)
	}
	for n := range got {
		return fmt.Errorf("metric %s is not in the benchmark's list", n)
	}
	return nil
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// hostRecord describes the machine, toolchain and code a result came from.
func hostRecord(root string, procs int, argv []string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return map[string]any{
		"cpu":                  cpu,
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":    procs,
		"go":                   runtime.Version(),
		"commit":               commit,
		"source_sha256":        sourceDigest(root),
		"daemon_cmdline":       strings.Join(argv, " "),
	}
}

// sourceDigest hashes every Go source and module file of the checkout
// outside build output, identifying the code when no commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "workloads.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
