package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ramiel "repro"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T, root string) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestSmoke builds both daemons and runs every workload briefly, untraced
// and traced. Each run must print every metric BENCHMARK.json names, with
// its unit, as the last line's JSON, and no output may be wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, d := range []string{"ramield", "ramielfe"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, d), "./cmd/"+d)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", d, err, out)
		}
	}
	bf := readBenchmarkFile(t, root)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Every workload BENCHMARK.json gates must be defined in workloads.json;
	// workloads.json may hold more, which are smoke-tested all the same.
	for _, bw := range bf.Workloads {
		if _, err := cfg.workload(bw.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range cfg.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			mode := "untraced"
			if trace {
				want, mode = bf.PerLayer, "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				o := options{workload: w.Name, seed: w.DefaultSeed, seconds: 1, trace: trace, smoke: true, binDir: bin, root: root}
				var out bytes.Buffer
				res, err := run(context.Background(), o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !last.Correct || !res.Correct {
					t.Fatalf("wrong outputs\n%s", out.String())
				}
				if !trace && !strings.Contains(out.String(), "wrong_outputs 0 ") {
					t.Errorf("report does not state wrong_outputs 0\n%s", out.String())
				}
				if last.Attempted < 1 || last.Failed != 0 {
					t.Errorf("attempted %d, failed %d", last.Attempted, last.Failed)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCheckOutputsCatchesWrongOutput makes sure the oracle comparison
// rejects an output moved beyond the tolerance and accepts rounding noise.
func TestCheckOutputsCatchesWrongOutput(t *testing.T) {
	ref := ramiel.Env{"y": ramiel.NewTensor(ramiel.NewShape(2, 2), []float32{1, -2, 3, 4})}
	tol := Tolerance{RTol: 1e-3, ATol: 1e-4}
	shapes := map[string][]int{"y": {2, 2}}
	near := map[string][]float32{"y": {1, -2, 3, 4.0001}}
	if r, err := checkOutputs(near, shapes, ref, tol); err != nil || r > 1 {
		t.Fatalf("rounding noise rejected: ratio %v, err %v", r, err)
	}
	far := map[string][]float32{"y": {1, -2, 3.1, 4}}
	if r, err := checkOutputs(far, shapes, ref, tol); err != nil || r <= 1 {
		t.Fatalf("wrong output accepted: ratio %v, err %v", r, err)
	}
	if _, err := checkOutputs(far, map[string][]int{"y": {4}}, ref, tol); err == nil {
		t.Fatal("wrong shape accepted")
	}
	if _, err := checkOutputs(map[string][]float32{}, shapes, ref, tol); err == nil {
		t.Fatal("missing output accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestQuietWindows checks that each request is filed under the window it
// ended in and that quiet keeps the least-stolen share plus its ties.
func TestQuietWindows(t *testing.T) {
	t0 := time.Now()
	tick := func(i int, steal time.Duration) sample {
		return sample{at: t0.Add(time.Duration(i) * sampleTick), steal: steal}
	}
	// Steal per window: 0, 0, 20 ms, 0.
	s := &segment{samples: []sample{tick(0, 0), tick(1, 0), tick(2, 0), tick(3, 20*time.Millisecond), tick(4, 20*time.Millisecond)}}
	for _, at := range []time.Duration{50, 150, 250, 260, 350} {
		s.res.Records = append(s.res.Records, &record{done: t0.Add(at * time.Millisecond)})
	}
	ws := s.windows()
	for i, want := range []int{1, 1, 2, 1} {
		if len(ws[i].recs) != want {
			t.Errorf("window %d holds %d requests, want %d", i, len(ws[i].recs), want)
		}
	}
	if got := len(quiet(ws, 0.5)); got != 3 {
		t.Errorf("quiet(0.5) kept %d windows, want the 3 without steal", got)
	}
	if got := len(quiet(ws, 1)); got != 4 {
		t.Errorf("quiet(1) kept %d windows, want all 4", got)
	}
}
