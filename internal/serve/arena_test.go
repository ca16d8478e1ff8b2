package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/exec"
)

var errMismatch = errors.New("served output differs from reference")

// TestArenaServingMatchesSequential: arena-backed serving (the default)
// returns the same outputs as the sequential reference, and the shared
// stats record real traffic.
func TestArenaServingMatchesSequential(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1})
	defer s.Close(context.Background())
	g := tinyModel()
	s.RegisterGraph("tiny", g)

	feeds := tinyFeeds(-1)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		outs, _, err := s.Infer(context.Background(), "tiny", feeds, false)
		if err != nil {
			t.Fatal(err)
		}
		if !outs["out"].Equal(want["out"]) {
			t.Fatalf("request %d: arena-served output differs from reference", i)
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("arena should be enabled by default")
	}
	if st.Gets == 0 || st.Puts == 0 {
		t.Fatalf("arena saw no traffic: %+v", st)
	}
}

// TestArenaOutputsSurviveSubsequentRequests: a client must be able to hold
// its response tensors while later requests reuse the same worker arena.
func TestArenaOutputsSurviveSubsequentRequests(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	feeds := tinyFeeds(-1)
	first, _, err := s.Infer(context.Background(), "tiny", feeds, false)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), first["out"].Data()...)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Infer(context.Background(), "tiny", feeds, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range first["out"].Data() {
		if v != snapshot[i] {
			t.Fatalf("held response mutated at %d: %v -> %v (output recycled into arena?)",
				i, snapshot[i], v)
		}
	}
}

// TestNoArenaConfig: the opt-out path serves correctly and reports the
// arena as disabled.
func TestNoArenaConfig(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1, NoArena: true})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(-1), false); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ArenaStats(); ok {
		t.Fatal("NoArena server still reports arena stats")
	}
}

// TestStatsEndpointArenaAndRuntime: /v1/stats carries the arena and Go
// runtime memory blocks the monitoring story depends on.
func TestStatsEndpointArenaAndRuntime(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	seed := uint64(1)
	if resp, _ := postInfer(t, ts.URL, InferRequest{Model: "squeezenet", Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Arena struct {
			Enabled bool  `json:"enabled"`
			Gets    int64 `json:"gets"`
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Puts    int64 `json:"puts"`
			Peak    int64 `json:"peak_bytes"`
		} `json:"arena"`
		Runtime struct {
			HeapAlloc  uint64 `json:"heap_alloc_bytes"`
			TotalAlloc uint64 `json:"total_alloc_bytes"`
			NumGC      uint32 `json:"num_gc"`
			Goroutines int    `json:"goroutines"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Arena.Enabled {
		t.Fatal("stats report arena disabled on a default server")
	}
	if body.Arena.Gets == 0 || body.Arena.Peak == 0 {
		t.Fatalf("arena counters empty after an inference: %+v", body.Arena)
	}
	if body.Runtime.HeapAlloc == 0 || body.Runtime.TotalAlloc == 0 || body.Runtime.Goroutines == 0 {
		t.Fatalf("runtime memory block empty: %+v", body.Runtime)
	}
}

// TestArenaBatchedServing: micro-batched (hyperclustered) runs ride worker
// arenas too and stay correct under concurrent load.
func TestArenaBatchedServing(t *testing.T) {
	s := New(Config{Workers: 4, MaxBatch: 4})
	defer s.Close(context.Background())
	g := tinyModel()
	s.RegisterGraph("tiny", g)
	feeds := tinyFeeds(-1)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < 10; i++ {
				outs, _, err := s.Infer(context.Background(), "tiny", feeds, false)
				if err != nil {
					errc <- err
					return
				}
				if !outs["out"].Equal(want["out"]) {
					errc <- errMismatch
					return
				}
			}
			errc <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
