package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	ramiel "repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/passes"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// traceRun is the traced run. It first offers the workload's traffic to
// the real daemon for the generator and transport numbers, stops it, and
// then times calls into each layer's public functions in this process, on
// the same models and inputs. Nothing inside the program is instrumented:
// where a call cannot be nested from outside, a layer's self time is the
// difference of two medians over the same inputs.
func traceRun(ctx context.Context, o options, cfg *Config, w Workload, rs *RequestSet, procs int) (*report, error) {
	rep := &report{}
	rtt, err := traceDaemon(ctx, o, cfg, w, rs, procs, rep)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	ct, err := traceCompile(rs, budget/8)
	if err != nil {
		return nil, err
	}
	ct.report(w, rep)
	if err := traceExec(ctx, rs, ct.progs, budget/4, rep); err != nil {
		return nil, err
	}
	handler, err := traceServe(ctx, w, rs, budget/4, rep)
	if err != nil {
		return nil, err
	}
	var transport []float64
	for _, m := range rs.Models {
		transport = append(transport, median(rtt[m])-handler[m])
	}
	rep.add("net.transport_us", mean(transport))
	rep.linef("net.transport_us = client round trip to the daemon minus serve.handler_us in process (difference of medians per model, mean over models)")
	return rep, nil
}

// loop calls f at least minN times and then until budget has passed.
func loop(budget time.Duration, minN int, f func(i int) error) error {
	start := time.Now()
	for i := 0; i < minN || time.Since(start) < budget; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// traceDaemon runs the traffic against the daemon for the generator's own
// metrics, then probes each model with one sequential caller for the
// client round trip. It returns the round trips in µs per model.
func traceDaemon(ctx context.Context, o options, cfg *Config, w Workload, rs *RequestSet, procs int, rep *report) (map[string][]float64, error) {
	d, err := startDaemon(ctx, o.binDir, w, procs)
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	rep.argv = d.Argv
	traffic := time.Duration(o.seconds * float64(time.Second) / 4)
	seg, err := runSegment(ctx, cfg, w, rs, d, traffic, o.seed)
	if err != nil {
		return nil, err
	}
	var lags []float64
	for _, r := range seg.res.Records {
		rep.attempted++
		switch {
		case r.wrong:
			rep.wrong++
		case !r.ok:
			rep.failed++
		default:
			lags = append(lags, ms(r.lag))
		}
	}
	rep.add("loadgen.lag_p99_ms", quantile(lags, 0.99))
	rep.add("loadgen.cpu_ms_per_req", ratio(ms(seg.genCPU), float64(len(seg.res.Records))))
	rep.linef("generator: %d requests in %.1fs of traffic; lag = send minus due time (open loop) or previous response to next send (closed loop)",
		len(seg.res.Records), traffic.Seconds())

	probe := newLoadGen(d.URL, 1, rs, cfg.Tolerance)
	defer probe.close()
	rtt := map[string][]float64{}
	var buf bytes.Buffer
	err = loop(time.Duration(o.seconds*float64(time.Second))/8, 3, func(int) error {
		for _, m := range rs.Models {
			for _, req := range rs.ByModel[m] {
				rep.attempted++
				start := time.Now()
				status, err := probe.send(ctx, req, &buf)
				elapsed := time.Since(start)
				if err != nil || status != http.StatusOK {
					rep.failed++
					continue
				}
				if r, err := checkResponse(buf.Bytes(), req, cfg.Tolerance); err != nil || r > 1 {
					rep.wrong++
					continue
				}
				rtt[m] = append(rtt[m], us(elapsed))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rtt, d.Stop()
}

// compileTimes holds per-model samples (ms) of each compile-pipeline call.
type compileTimes struct {
	samples map[string]map[string][]float64 // model -> metric -> samples
	progs   map[string]*ramiel.Program      // one compiled program per model
}

// compileSteps are the pipeline calls ramiel.Compile makes, in order; their
// sum is compared with Program.CompileTime.
var compileSteps = []string{"passes.fuse_ms", "core.cluster_ms", "core.merge_ms", "exec.plan_ms", "memplan.plan_ms", "ops.prepack_ms"}

// traceCompile replays the daemon's compile pipeline (fusion on, eager
// memory plan, prepack) one call at a time on each model, then times the
// whole Compile, the memory estimate the governor requests and a batch-2
// hypercluster.
func traceCompile(rs *RequestSet, budget time.Duration) (*compileTimes, error) {
	ct := &compileTimes{samples: map[string]map[string][]float64{}, progs: map[string]*ramiel.Program{}}
	per := budget / time.Duration(len(rs.Models))
	for _, m := range rs.Models {
		g := rs.Graphs[m]
		s := map[string][]float64{}
		ct.samples[m] = s
		timed := func(name string, f func() error) error {
			start := time.Now()
			err := f()
			s[name] = append(s[name], ms(time.Since(start)))
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, m, err)
			}
			return nil
		}
		err := loop(per, 3, func(int) error {
			work := g.Clone()
			var (
				cl   *core.Clustering
				plan *exec.Plan
				err  error
			)
			if err := timed("passes.fuse_ms", func() error { _, err := passes.Fuse(work); return err }); err != nil {
				return err
			}
			if err := timed("core.cluster_ms", func() error { cl, err = core.LinearCluster(work, cost.DefaultModel()); return err }); err != nil {
				return err
			}
			_ = timed("core.merge_ms", func() error { cl.MergeClusters(); return nil })
			lanes := make([][]*graph.Node, len(cl.Clusters))
			for i, c := range cl.Clusters {
				lanes[i] = c.Nodes
			}
			if err := timed("exec.plan_ms", func() error { plan, err = exec.NewPlan(work, lanes); return err }); err != nil {
				return err
			}
			_ = timed("memplan.plan_ms", func() error { plan.MemoryPlan(); return nil })
			_ = timed("ops.prepack_ms", func() error { plan.PrepackWeights(); return nil })

			prog, err := ramiel.CompileWithOptions(g, ramiel.Options{EagerMemPlan: true})
			if err != nil {
				return fmt.Errorf("compiling %s: %w", m, err)
			}
			s["ramiel.compile_ms"] = append(s["ramiel.compile_ms"], ms(prog.CompileTime))
			ct.progs[m] = prog
			if err := timed("ramiel.mem_estimate_ms", func() error { _, err := prog.MemoryEstimate(); return err }); err != nil {
				return err
			}
			return timed("hyper.batch2_ms", func() error { _, err := prog.Hypercluster(2, false); return err })
		})
		if err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// report adds the compile metrics, each summed over the workload's models
// (the daemon compiles every model at set-up), and one row per model.
func (ct *compileTimes) report(w Workload, rep *report) {
	names := append(slices.Clone(compileSteps), "ramiel.mem_estimate_ms", "hyper.batch2_ms", "ramiel.compile_ms")
	total := map[string]float64{}
	for _, m := range w.Models {
		s := ct.samples[m]
		row := []string{}
		steps := 0.0
		for _, n := range names {
			v := median(s[n])
			total[n] += v
			row = append(row, fmt.Sprintf("%s %.3f", strings.TrimSuffix(n, "_ms"), v))
			if slices.Contains(compileSteps, n) {
				steps += v
			}
		}
		rest := median(s["ramiel.compile_ms"]) - steps
		total["ramiel.compile_unaccounted_ms"] += rest
		rep.linef("compile %s (ms, median of %d): %s; CompileTime not accounted for by the six steps %.3f",
			m, len(s["ramiel.compile_ms"]), strings.Join(row, ", "), rest)
	}
	for _, n := range append(names, "ramiel.compile_unaccounted_ms") {
		rep.add(n, total[n])
	}
	rep.linef("compile metrics are sums over the workload's models; ramiel.compile_unaccounted_ms = CompileTime minus the six timed steps (graph clone, lane lists, timing)")
}

// execStats is one model's executor measurements.
type execStats struct {
	nodes, lanes  int
	multi, single []float64 // ms per run
	kernelMs      float64   // single-lane kernel time per run
	slackShare    []float64
	allocsPerRun  float64
	simSpeedup    float64
	opMs          map[string]float64 // multi-lane kernel ms per run by op type
	hits, gets    int64
	peakBytes     int64
}

// traceExec times multi-lane Plan.Execute against exec.SequentialPlan of
// the same compiled, prepacked graph, each with its own warm arena,
// alternating the two so host noise hits both alike.
func traceExec(ctx context.Context, rs *RequestSet, progs map[string]*ramiel.Program, budget time.Duration, rep *report) error {
	per := budget / time.Duration(len(rs.Models))
	stats := map[string]*execStats{}
	for _, m := range rs.Models {
		prog := progs[m]
		multi := prog.Plan
		single, err := exec.SequentialPlan(prog.Graph)
		if err != nil {
			return err
		}
		single.PrepackWeights()
		single.MemoryPlan()
		arM, arS := tensor.NewArena(), tensor.NewArena()
		reqs := rs.ByModel[m]
		st := &execStats{nodes: len(prog.Graph.Nodes), lanes: len(multi.Lanes)}
		stats[m] = st
		for _, req := range reqs[:2] { // warm both arenas and the op counters
			if _, _, err := multi.Execute(ctx, req.Feeds, arM); err != nil {
				return err
			}
			if _, _, err := single.Execute(ctx, req.Feeds, arS); err != nil {
				return err
			}
		}
		ops0, sops0 := opNs(multi.OpTotals()), opNs(single.OpTotals())
		a0 := arM.Stats().Snapshot()
		runs := 0
		err = loop(per, 10, func(i int) error {
			feeds := reqs[i%len(reqs)].Feeds
			start := time.Now()
			_, prof, err := multi.Execute(ctx, feeds, arM)
			if err != nil {
				return err
			}
			st.multi = append(st.multi, ms(time.Since(start)))
			st.slackShare = append(st.slackShare, ratio(float64(prof.TotalSlack()), float64(prof.Wall)*float64(len(prof.Lanes))))
			start = time.Now()
			if _, _, err := single.Execute(ctx, feeds, arS); err != nil {
				return err
			}
			st.single = append(st.single, ms(time.Since(start)))
			runs++
			return nil
		})
		if err != nil {
			return err
		}
		a1 := arM.Stats().Snapshot()
		st.hits, st.gets, st.peakBytes = a1.Hits-a0.Hits, a1.Gets-a0.Gets, a1.PeakBytes
		st.opMs = map[string]float64{}
		for op, ns := range opNs(multi.OpTotals()) {
			st.opMs[op] = (float64(ns-ops0[op]) / float64(runs)) / 1e6
		}
		for op, ns := range opNs(single.OpTotals()) {
			st.kernelMs += (float64(ns-sops0[op]) / float64(runs)) / 1e6
		}
		var ms0, ms1 runtime.MemStats
		const allocRuns = 10
		runtime.ReadMemStats(&ms0)
		for i := 0; i < allocRuns; i++ {
			if _, _, err := multi.Execute(ctx, reqs[i%len(reqs)].Feeds, arM); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		st.allocsPerRun = float64(ms1.Mallocs-ms0.Mallocs) / allocRuns
		sim, err := prog.Simulate()
		if err != nil {
			return err
		}
		st.simSpeedup = sim.Speedup()
	}
	reportExec(rs.Models, stats, rep)
	return nil
}

func opNs(totals []ramiel.OpTotal) map[string]int64 {
	out := make(map[string]int64, len(totals))
	for _, t := range totals {
		out[t.Op] = t.TotalNs
	}
	return out
}

// reportExec adds the executor, op and arena metrics. On a multi-model
// workload each is taken over the uniform model mix the generator draws:
// times are means over models and ratios are ratios of those means.
func reportExec(models []string, stats map[string]*execStats, rep *report) {
	var multi, single, simMulti, slack, overheadNs, allocs, kernel, hits, gets, peak float64
	nodes := 0
	opMs := map[string]float64{}
	for _, m := range models {
		st := stats[m]
		mm, sm := median(st.multi), median(st.single)
		speedup := sm / mm
		rep.linef("claim %s: %d nodes on %d lanes; single-lane %.3f ms (exec.SequentialPlan, same compiled prepacked graph, arena) vs multi-lane %.3f ms (Plan.Execute, arena): exec.lane_speedup %.3fx, exec.sim_speedup %.3fx, simulator error %+.1f%% of measured (%d runs each)",
			m, st.nodes, st.lanes, sm, mm, speedup, st.simSpeedup, 100*(st.simSpeedup-speedup)/speedup, len(st.multi))
		multi += mm
		single += sm
		simMulti += sm / st.simSpeedup
		slack += mean(st.slackShare)
		overheadNs += (mean(st.single) - st.kernelMs) * 1e6
		nodes += st.nodes
		allocs += st.allocsPerRun
		kernelM := 0.0
		for op, v := range st.opMs {
			opMs[op] += v
			kernelM += v
		}
		kernel += kernelM
		hits += float64(st.hits)
		gets += float64(st.gets)
		peak = max(peak, float64(st.peakBytes))
		rep.linef("ops %s: %s", m, opShares(st.opMs, kernelM))
	}
	n := float64(len(models))
	speedup := single / multi
	sim := single / simMulti
	rep.add("exec.run_ms", multi/n)
	rep.add("exec.single_lane_ms", single/n)
	rep.add("exec.lane_speedup", speedup)
	rep.add("exec.sim_speedup", sim)
	rep.add("exec.sim_rel_error", math.Abs(sim-speedup)/speedup)
	rep.add("exec.slack_share", slack/n)
	rep.add("exec.overhead_ns_per_node", overheadNs/float64(nodes))
	rep.add("exec.allocs_per_run", allocs/n)
	for _, op := range trackedOps {
		rep.add("ops."+op+".ms_per_run", opMs[op]/n)
	}
	rep.add("ops.kernel_ms_per_run", kernel/n)
	rep.add("tensor.arena_hit_pct", 100*ratio(hits, gets))
	rep.add("tensor.arena_peak_mb", peak/(1<<20))
	rep.linef("exec.lane_speedup %.3fx = exec.single_lane_ms %.3f / exec.run_ms %.3f (base: single lane, same program, prepacked, arena)", speedup, single/n, multi/n)
	rep.linef("exec.slack_share = Profile.TotalSlack / (lanes x wall); exec.overhead_ns_per_node = (mean single-lane wall - mean single-lane kernel time) / nodes; ops.* from Program.OpTotals of the multi-lane plan")
}

// opShares lists op types by kernel time, marking those at >= 10%.
func opShares(opMs map[string]float64, total float64) string {
	ops := make([]string, 0, len(opMs))
	for op := range opMs {
		ops = append(ops, op)
	}
	slices.SortFunc(ops, func(a, b string) int {
		switch {
		case opMs[a] > opMs[b]:
			return -1
		case opMs[a] < opMs[b]:
			return 1
		}
		return strings.Compare(a, b)
	})
	var parts []string
	for _, op := range ops {
		share := ratio(opMs[op], total)
		if share < 0.01 {
			break
		}
		mark := ""
		if share >= 0.10 {
			mark = "*"
		}
		parts = append(parts, fmt.Sprintf("%s%s %.3fms (%.0f%%)", op, mark, opMs[op], 100*share))
	}
	return strings.Join(parts, ", ") + " (* = at least 10% of kernel time)"
}

// serveConfig mirrors the daemons' default serving configuration.
func serveConfig(replicas int) serve.Config {
	budget := serve.DetectMemoryBudget(0)
	if budget > 0 {
		budget /= int64(replicas)
	}
	return serve.Config{
		MaxBatch:       4,
		FlushTimeout:   2 * time.Millisecond,
		AdaptiveBatch:  true,
		Deadline:       30 * time.Second,
		MemBudgetBytes: budget,
	}
}

// traceServe builds the daemon's serving stack in process and times its
// layers from outside, one sequential caller at a time, cycling over the
// models and inputs. It returns the median handler time per model (µs).
func traceServe(ctx context.Context, w Workload, rs *RequestSet, budget time.Duration, rep *report) (map[string]float64, error) {
	var locals []fleet.Replica
	var servers []*serve.Server
	for i := 0; i < w.replicas(); i++ {
		srv := serve.New(serveConfig(w.replicas()))
		defer srv.Close(context.Background())
		if err := srv.RegisterZoo(rs.Cfg, w.Models...); err != nil {
			return nil, err
		}
		if err := srv.Warm(); err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		locals = append(locals, fleet.NewLocal(fmt.Sprintf("r%d", i), srv))
	}
	fcfg := fleet.Config{Deadline: 30 * time.Second}
	front := fleet.New(fcfg, locals...)
	// The daemon's top handler: the fleet front's for ramielfe, the
	// server's own for ramield.
	handler := servers[0].Handler()
	topInfer := "Server.Infer"
	if w.Daemon == "ramielfe" {
		handler, topInfer = front.Handler(), "Front.Infer"
	}
	srv := servers[0]

	handlerUs, inferUs, frontUs := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var metas []serve.InferMeta
	serveHTTP := func(req *Request) error {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(req.Body))
		handler.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: %s: status %d: %.200s", req.Model, rec.Code, rec.Body.String())
		}
		return nil
	}
	i := 0
	err := loop(budget*2/3, 5, func(int) error {
		for _, m := range rs.Models {
			req := rs.ByModel[m][i%len(rs.ByModel[m])]
			start := time.Now()
			if err := serveHTTP(req); err != nil {
				return err
			}
			handlerUs[m] = append(handlerUs[m], us(time.Since(start)))
			start = time.Now()
			_, meta, err := srv.Infer(ctx, m, req.Feeds, false)
			if err != nil {
				return err
			}
			inferUs[m] = append(inferUs[m], us(time.Since(start)))
			metas = append(metas, meta)
			start = time.Now()
			if _, _, _, err := front.Infer(ctx, m, req.Feeds, false); err != nil {
				return err
			}
			frontUs[m] = append(frontUs[m], us(time.Since(start)))
		}
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	const allocReqs = 20
	runtime.ReadMemStats(&ms0)
	for k := 0; k < allocReqs; k++ {
		m := rs.Models[k%len(rs.Models)]
		if err := serveHTTP(rs.ByModel[m][k%len(rs.ByModel[m])]); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)

	handlerMed := map[string]float64{}
	var hSum, iSum, fSum, wireSum float64
	for _, m := range rs.Models {
		h, in, f := median(handlerUs[m]), median(inferUs[m]), median(frontUs[m])
		handlerMed[m] = h
		hSum += h
		iSum += in
		fSum += f - in
		top := in
		if w.Daemon == "ramielfe" {
			top = f
		}
		wireSum += h - top
		rep.linef("serve %s (µs, median of %d): handler %.1f, Server.Infer %.1f, Front.Infer %.1f", m, len(handlerUs[m]), h, in, f)
	}
	n := float64(len(rs.Models))
	rep.add("serve.handler_us", hSum/n)
	rep.add("serve.infer_us", iSum/n)
	rep.add("serve.wire_us", wireSum/n)
	rep.add("fleet.front_us", fSum/n)
	rep.linef("serve.handler_us times the daemon's top handler (ServeHTTP, recorder); serve.wire_us = handler minus %s and fleet.front_us = Front.Infer minus Server.Infer (differences of medians per model, means over models)", topInfer)

	snapFront := front
	if w.Loop == "open" {
		// Queueing and batching only happen under the open-loop traffic:
		// replay its schedule in process against a fresh front.
		snapFront = fleet.New(fcfg, locals...)
		metas = metas[:0]
		sched := schedule(rs, w.RateRPS, budget/3, 0x7472616365) // "trace"
		results := make([]serve.InferMeta, len(sched))
		errs := make([]error, len(sched))
		paced(ctx, sched, w.Connections, func(_, i int, _ time.Time) {
			_, results[i], _, errs[i] = snapFront.Infer(ctx, sched[i].req.Model, sched[i].req.Feeds, false)
		})
		for i, meta := range results {
			if errs[i] == nil {
				metas = append(metas, meta)
			}
		}
		rep.linef("serve.queue_wait_us, batch_wait_us, exec_us, batch_size_mean and fleet ratios from an in-process replay of the open-loop schedule (%d requests at %.0f req/s on %d callers)", len(sched), w.RateRPS, w.Connections)
	} else {
		rep.linef("serve.queue_wait_us, batch_wait_us, exec_us and batch_size_mean from the sequential Server.Infer calls; fleet ratios from the sequential Front.Infer calls")
	}
	var qw, bw, ex, bs []float64
	for _, meta := range metas {
		qw = append(qw, us(meta.QueueWait))
		bw = append(bw, us(meta.BatchWait))
		ex = append(ex, us(meta.Exec))
		bs = append(bs, float64(meta.BatchSize))
	}
	rep.add("serve.queue_wait_us", mean(qw))
	rep.add("serve.batch_wait_us", mean(bw))
	rep.add("serve.exec_us", mean(ex))
	rep.add("serve.batch_size_mean", mean(bs))
	rep.add("serve.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/allocReqs)
	rep.linef("serve.allocs_per_req counts the whole in-process handler call, recorder and request included")

	var reqs, spills, retries, shed float64
	for _, s := range snapFront.Snapshot().Models {
		reqs += float64(s.Requests)
		spills += float64(s.Spills)
		retries += float64(s.Retries)
		for _, n := range s.Shed {
			shed += float64(n)
		}
	}
	rep.add("fleet.spill_ratio", ratio(spills, reqs))
	rep.add("fleet.retry_ratio", ratio(retries, reqs))
	rep.add("fleet.shed_ratio", ratio(shed, reqs))
	return handlerMed, nil
}
