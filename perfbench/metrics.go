package main

import "strings"

// Metric is one named, unit-carrying measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEnd are the metrics of an untraced run, as a user of the daemons
// sees them. fail_ratio and wrong_outputs are carried by the result's
// failed/attempted and correct fields instead: both are 0 on a good run.
var endToEnd = []string{
	"latency_p50_ms", "latency_p99_ms", "throughput_rps", "slo_ratio",
	"setup_s", "rss_peak_mb", "cpu_ms_per_req",
}

// trackedOps are the operator types given an ops.<op>.ms_per_run metric:
// every op type that takes at least 10% of kernel time on some workload.
// A traced run prints all of them on every workload, so the set is fixed.
var trackedOps = []string{"Conv", "MaxPool", "AveragePool", "Transpose", "FusedElementwise", "Add", "MatMul"}

// perLayer are the metrics of a traced run, named by module.
func perLayer() []string {
	names := []string{
		"passes.fuse_ms", "core.cluster_ms", "core.merge_ms", "exec.plan_ms",
		"memplan.plan_ms", "ops.prepack_ms", "ramiel.mem_estimate_ms",
		"hyper.batch2_ms", "ramiel.compile_ms", "ramiel.compile_unaccounted_ms",
		"exec.run_ms", "exec.single_lane_ms", "exec.lane_speedup", "exec.sim_speedup",
		"exec.sim_rel_error", "exec.slack_share", "exec.overhead_ns_per_node", "exec.allocs_per_run",
	}
	for _, op := range trackedOps {
		names = append(names, "ops."+op+".ms_per_run")
	}
	return append(names,
		"ops.kernel_ms_per_run",
		"tensor.arena_hit_pct", "tensor.arena_peak_mb",
		"serve.handler_us", "serve.infer_us", "serve.wire_us",
		"serve.queue_wait_us", "serve.batch_wait_us", "serve.exec_us",
		"serve.batch_size_mean", "serve.allocs_per_req",
		"fleet.front_us", "fleet.spill_ratio", "fleet.retry_ratio", "fleet.shed_ratio",
		"net.transport_us", "loadgen.lag_p99_ms", "loadgen.cpu_ms_per_req",
	)
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms_per_run"),
		strings.HasSuffix(name, "_ms_per_run"), strings.HasSuffix(name, "_ms_per_req"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns_per_node"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_speedup"):
		return "x"
	case strings.HasPrefix(name, "exec.allocs"), strings.HasPrefix(name, "serve.allocs"):
		return "count"
	case strings.HasSuffix(name, "_mean"):
		return "requests"
	default:
		return "ratio"
	}
}
