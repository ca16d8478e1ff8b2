package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	ramiel "repro"
	"repro/internal/exec"
	"repro/internal/serve"
)

// Request is one pre-built inference call: its generated inputs, the JSON
// body the daemon receives, and the reference outputs it must return.
type Request struct {
	Model string
	Feeds ramiel.Env
	Body  []byte
	Ref   ramiel.Env
}

// RequestSet holds every request a run may send, grouped by model.
type RequestSet struct {
	Models  []string
	ByModel map[string][]*Request
	Graphs  map[string]*ramiel.Graph // uncompiled zoo graphs
	Cfg     ramiel.ModelConfig
}

// inputSeed derives the per-input seed from the workload seed, the model
// and the input index, so models never share an input stream.
func inputSeed(seed uint64, model string, k int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, model, k)
	return h.Sum64()
}

// buildRequests generates n inputs per model with ramiel.RandomInputs,
// encodes each request body, and computes each reference output with
// exec.RunSequential on the uncompiled zoo graph — an interpreter
// independent of the compiler under test.
func buildRequests(w Workload, seed uint64, n int) (*RequestSet, error) {
	rs := &RequestSet{
		Models:  w.Models,
		ByModel: map[string][]*Request{},
		Graphs:  map[string]*ramiel.Graph{},
		Cfg:     ramiel.ModelConfig{ImageSize: w.Img},
	}
	for _, m := range w.Models {
		g, err := ramiel.BuildModel(m, rs.Cfg)
		if err != nil {
			return nil, err
		}
		rs.Graphs[m] = g
		for k := 0; k < n; k++ {
			feeds := ramiel.RandomInputs(g, inputSeed(seed, m, k))
			ref, err := exec.RunSequential(g, feeds)
			if err != nil {
				return nil, fmt.Errorf("reference run of %s: %w", m, err)
			}
			req := serve.InferRequest{Model: m, Inputs: map[string]serve.TensorJSON{}}
			for name, t := range feeds {
				req.Inputs[name] = serve.TensorJSON{Shape: t.Shape(), Data: t.Data()}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			rs.ByModel[m] = append(rs.ByModel[m], &Request{Model: m, Feeds: feeds, Body: body, Ref: ref})
		}
	}
	return rs, nil
}

// checkOutputs compares one response's outputs with the reference. It
// returns the worst error as a share of the tolerance (<= 1 passes).
func checkOutputs(got map[string][]float32, gotShape map[string][]int, ref ramiel.Env, tol Tolerance) (float64, error) {
	if len(got) != len(ref) {
		return math.Inf(1), fmt.Errorf("%d outputs, want %d", len(got), len(ref))
	}
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	worst := 0.0
	for _, name := range names {
		want := ref[name]
		data, ok := got[name]
		if !ok {
			return math.Inf(1), fmt.Errorf("output %q missing", name)
		}
		if !sameShape(gotShape[name], want.Shape()) || len(data) != len(want.Data()) {
			return math.Inf(1), fmt.Errorf("output %q has shape %v, want %v", name, gotShape[name], want.Shape())
		}
		scale := 0.0
		for _, v := range want.Data() {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		limit := tol.ATol + tol.RTol*scale
		for i, v := range want.Data() {
			d := math.Abs(float64(data[i]) - float64(v))
			if math.IsNaN(d) {
				return math.Inf(1), fmt.Errorf("output %q[%d] is NaN", name, i)
			}
			worst = math.Max(worst, d/limit)
		}
	}
	return worst, nil
}

func sameShape(a []int, b ramiel.Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkResponse decodes a /v1/infer response body and checks it against
// the request's reference.
func checkResponse(body []byte, req *Request, tol Tolerance) (float64, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return math.Inf(1), fmt.Errorf("decoding response: %w", err)
	}
	got := make(map[string][]float32, len(resp.Outputs))
	shapes := make(map[string][]int, len(resp.Outputs))
	for name, tj := range resp.Outputs {
		got[name], shapes[name] = tj.Data, tj.Shape
	}
	return checkOutputs(got, shapes, req.Ref, tol)
}
