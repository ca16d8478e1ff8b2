package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

//go:embed workloads.json
var workloadsJSON []byte

// Workload is one traffic mix the benchmark drives through a daemon.
type Workload struct {
	Name           string   `json:"name"`
	Why            string   `json:"why"`
	Daemon         string   `json:"daemon"` // "ramield" or "ramielfe"
	Models         []string `json:"models"`
	Img            int      `json:"img"`
	ExtraArgs      []string `json:"extra_args"`
	Loop           string   `json:"loop"`        // "closed" or "open"
	Connections    int      `json:"connections"` // keep-alive connections; in a closed loop, one caller each
	RateRPS        float64  `json:"rate_rps"`    // open loop: fixed offered rate
	LatencyLimitMs float64  `json:"latency_limit_ms"`
	DefaultSeed    uint64   `json:"default_seed"`
}

// Config is the parsed workloads.json.
type Config struct {
	SegmentsPerRun int        `json:"segments_per_run"`
	QuietShare     float64    `json:"quiet_share"`
	WarmupSeconds  float64    `json:"warmup_seconds"`
	InputsPerModel int        `json:"inputs_per_model"`
	MinRequests    int        `json:"min_requests"`
	Tolerance      Tolerance  `json:"tolerance"`
	Workloads      []Workload `json:"workloads"`
}

// Tolerance bounds how far a daemon output may sit from the reference.
type Tolerance struct {
	RTol float64 `json:"rtol"`
	ATol float64 `json:"atol"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

func (c *Config) workload(name string) (Workload, error) {
	var names []string
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// daemonArgs is the daemon's exact command line after the program name.
func (w Workload) daemonArgs(addr string) []string {
	args := []string{"-addr", addr, "-models", strings.Join(w.Models, ","), "-img", strconv.Itoa(w.Img)}
	return append(args, w.ExtraArgs...)
}

// replicas is the number of in-process serving replicas the daemon runs.
func (w Workload) replicas() int {
	for i, a := range w.ExtraArgs {
		if (a == "-inproc" || a == "-replicas") && i+1 < len(w.ExtraArgs) {
			if n, err := strconv.Atoi(w.ExtraArgs[i+1]); err == nil && n > 0 {
				return n
			}
		}
	}
	return 1
}
