// Package exec runs dataflow graphs: a sequential reference executor, the
// parallel executor that maps each cluster onto its own goroutine with
// buffered channels carrying cross-cluster tensor dependences (the Go
// equivalent of the paper's Python processes and message queues), and a
// deterministic discrete-event simulator driven by the static cost model
// for reproducible makespan comparisons.
package exec

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Env binds value names to tensors.
type Env map[string]*tensor.Tensor

// RunSequential executes the graph in topological order on the calling
// goroutine and returns the graph outputs. It is both the correctness
// reference for the parallel executor and the baseline for every speedup
// the paper reports.
func RunSequential(g *graph.Graph, feeds Env) (Env, error) {
	return RunSequentialCtx(context.Background(), g, feeds)
}

// RunSequentialCtx is RunSequential under a context: cancellation is
// observed between operator kernels, mirroring the parallel executor's
// cooperative unwind, and surfaces as the bare ctx error.
func RunSequentialCtx(ctx context.Context, g *graph.Graph, feeds Env) (Env, error) {
	env, err := runAllSequential(ctx, g, feeds)
	if err != nil {
		return nil, err
	}
	return collectOutputs(g, env)
}

// runAllSequential executes every node in topological order and returns
// the full value environment.
func runAllSequential(ctx context.Context, g *graph.Graph, feeds Env) (Env, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	env, err := seedEnv(g, feeds)
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := evalNode(g, n, env, nil, nil, false); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// ValueSizes executes g sequentially with feeds and records the element
// count of every node-produced value (numel) and, per node, the transient
// kernel scratch it draws from the run's allocator (scratch, in elements;
// nodes without scratch are absent). Shapes are not statically inferable in
// this IR, so one reference execution is how the memory planner's estimates
// (memplan.Plan.EstimateWithScratch) get their sizes.
func ValueSizes(g *graph.Graph, feeds Env) (numel, scratch map[string]int, err error) {
	env, err := runAllSequential(context.Background(), g, feeds)
	if err != nil {
		return nil, nil, err
	}
	numel = make(map[string]int)
	scratch = make(map[string]int)
	var in []*tensor.Tensor
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if t, ok := env[out]; ok {
				numel[out] = t.Numel()
			}
		}
		// The environment keeps every value, so each node's inputs are
		// still bound after the run.
		in = in[:0]
		for _, name := range n.Inputs {
			in = append(in, env[name])
		}
		if s := ops.ScratchElems(n.OpType, n.Attrs, in); s > 0 {
			scratch[n.Name] = s
		}
	}
	return numel, scratch, nil
}

// seedEnv builds the initial value environment from initializers + feeds.
func seedEnv(g *graph.Graph, feeds Env) (Env, error) {
	env := make(Env, len(g.Nodes)*2)
	for name, t := range g.Initializers {
		env[name] = t
	}
	for _, in := range g.Inputs {
		t, ok := feeds[in.Name]
		if !ok {
			return nil, fmt.Errorf("exec: missing feed for graph input %q", in.Name)
		}
		if in.Shape != nil && len(in.Shape) > 0 && !t.Shape().Equal(in.Shape) {
			return nil, fmt.Errorf("exec: feed %q has shape %v, graph declares %v", in.Name, t.Shape(), in.Shape)
		}
		env[in.Name] = t
	}
	return env, nil
}

// evalNode runs one node's kernel against env, storing its outputs. The
// allocator (nil = heap) reaches every kernel output allocation, so an
// arena-backed run recycles intermediate storage. pp carries the node's
// compile-time-packed constant weights (plan runs); nil means the ordinary
// registry kernel, which packs at call time and computes identical values.
// inplace (arena runs only) means the memory plan proved the node's first
// input dies here: the kernel writes the output into the input's buffer
// (ops.RunInPlace), and the executor schedules no release for the input —
// its storage lives on as the output.
func evalNode(g *graph.Graph, n *graph.Node, env Env, a tensor.Allocator, pp *ops.Prepacked, inplace bool) error {
	inputs := make([]*tensor.Tensor, len(n.Inputs))
	for i, name := range n.Inputs {
		t, ok := env[name]
		if !ok {
			return fmt.Errorf("exec: node %s: input %q not available", n.Name, name)
		}
		inputs[i] = t
	}
	var outs []*tensor.Tensor
	var err error
	switch {
	case pp != nil && inplace:
		outs, err = ops.RunPrepackedInPlace(n.OpType, inputs, n.Attrs, a, pp)
	case pp != nil:
		outs, err = ops.RunPrepacked(n.OpType, inputs, n.Attrs, a, pp)
	case inplace:
		outs, err = ops.RunInPlace(n.OpType, inputs, n.Attrs, a)
	default:
		kernel, kerr := ops.LookupAlloc(n.OpType)
		if kerr != nil {
			return fmt.Errorf("exec: node %s: %w", n.Name, kerr)
		}
		outs, err = kernel(inputs, n.Attrs, a)
	}
	if err != nil {
		return fmt.Errorf("exec: node %s: %w", n.Name, err)
	}
	if len(outs) < len(n.Outputs) {
		return fmt.Errorf("exec: node %s: kernel returned %d outputs, graph declares %d",
			n.Name, len(outs), len(n.Outputs))
	}
	for i, name := range n.Outputs {
		env[name] = outs[i]
	}
	return nil
}

func collectOutputs(g *graph.Graph, env Env) (Env, error) {
	out := make(Env, len(g.Outputs))
	for _, o := range g.Outputs {
		t, ok := env[o.Name]
		if !ok {
			return nil, fmt.Errorf("exec: graph output %q was not produced", o.Name)
		}
		out[o.Name] = t
	}
	return out, nil
}
