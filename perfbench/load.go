package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// loadRun is the untraced run. It splits the timed phase into segments:
// each starts a fresh daemon (timing its set-up), warms it with the
// workload's traffic, offers that traffic for its share of the run and
// stops it. See summarize for how the segments become metrics.
func loadRun(ctx context.Context, o options, cfg *Config, w Workload, rs *RequestSet, procs int) (*report, error) {
	rep := &report{}
	n := cfg.SegmentsPerRun
	if o.smoke {
		n = 1
	}
	dur := time.Duration(o.seconds * float64(time.Second) / float64(n))
	var segs []*segment
	for i := 0; i < n; i++ {
		d, err := startDaemon(ctx, o.binDir, w, procs)
		if err != nil {
			return nil, err
		}
		rep.argv = d.Argv
		seg, err := runSegment(ctx, cfg, w, rs, d, dur, o.seed+uint64(i)*0x9e3779b97f4a7c15)
		if stopErr := d.Stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	summarize(rep, o, cfg, w, segs)
	return rep, nil
}

// segment is one daemon's share of a run.
type segment struct {
	setup         time.Duration
	res           LoadResult
	before, after ProcStats // the daemon's, around the timed phase
	genCPU        time.Duration
	steal         time.Duration // host CPU time stolen by the hypervisor during the timed phase
	samples       []sample      // readings every sampleTick over the timed phase, first and last included
}

// sampleTick is how often a segment reads the host's steal time and the
// daemon's CPU time while its traffic runs.
const sampleTick = 100 * time.Millisecond

// sample is one reading taken while a segment's traffic runs.
type sample struct {
	at    time.Time
	steal time.Duration // hostSteal
	proc  ProcStats     // the daemon's
}

func readSample(pid int) (sample, error) {
	ps, err := readProcStats(pid)
	return sample{at: time.Now(), steal: hostSteal(), proc: ps}, err
}

// sampler reads a sample every sampleTick until stopped. A reading that
// fails mid-run is skipped, merging its window into the next; only the
// first and last readings must succeed.
type sampler struct {
	stop chan struct{}
	out  chan []sample
	err  error // of the last reading
}

// startSampler takes the first sample before it returns, so every request
// sent afterwards falls after it.
func startSampler(pid int) (*sampler, error) {
	first, err := readSample(pid)
	if err != nil {
		return nil, err
	}
	sm := &sampler{stop: make(chan struct{}), out: make(chan []sample, 1)}
	go func() {
		got := []sample{first}
		t := time.NewTicker(sampleTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if s, err := readSample(pid); err == nil {
					got = append(got, s)
				}
			case <-sm.stop:
				s, err := readSample(pid)
				if sm.err = err; err == nil {
					got = append(got, s)
				}
				sm.out <- got
				return
			}
		}
	}()
	return sm, nil
}

// finish takes the last sample and returns them all.
func (sm *sampler) finish() ([]sample, error) {
	close(sm.stop)
	got := <-sm.out
	return got, sm.err
}

// runSegment warms the daemon with the workload's traffic, untimed, so
// lazily compiled batch variants, arenas and connections are in place, and
// then offers the traffic for dur.
func runSegment(ctx context.Context, cfg *Config, w Workload, rs *RequestSet, d *Daemon, dur time.Duration, seed uint64) (*segment, error) {
	gen := newLoadGen(d.URL, w.Connections, rs, cfg.Tolerance)
	defer gen.close()
	warm := gen.run(ctx, w, time.Duration(cfg.WarmupSeconds*float64(time.Second)), ^seed)
	for _, r := range warm.Records {
		if r.wrong {
			return nil, fmt.Errorf("warm-up: wrong output from %s: %v", r.req.Model, r.err)
		}
	}
	s := &segment{setup: d.Setup}
	sm, err := startSampler(d.Cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	s.res = gen.run(ctx, w, dur, seed)
	s.genCPU = selfCPU() - cpu0
	if s.samples, err = sm.finish(); err != nil {
		return nil, err
	}
	first, last := s.samples[0], s.samples[len(s.samples)-1]
	s.before, s.after, s.steal = first.proc, last.proc, last.steal-first.steal
	return s, nil
}

// stealShare is the share of the host's CPU time the hypervisor gave to
// other guests while the segment's traffic ran.
func (s *segment) stealShare() float64 {
	return ratio(float64(s.steal), float64(s.res.Elapsed)*float64(runtime.NumCPU()))
}

// window is the stretch between two consecutive samples of a segment, with
// the requests that ended in it.
type window struct {
	dur, steal, cpu time.Duration
	recs            []*record
}

func (w *window) stealShare() float64 {
	return ratio(float64(w.steal), float64(w.dur)*float64(runtime.NumCPU()))
}

// windows splits the segment's timed phase at its samples and files each
// request under the window it ended in.
func (s *segment) windows() []*window {
	ws := make([]*window, len(s.samples)-1)
	for i := range ws {
		a, b := s.samples[i], s.samples[i+1]
		ws[i] = &window{dur: b.at.Sub(a.at), steal: b.steal - a.steal, cpu: b.proc.CPU - a.proc.CPU}
	}
	for _, r := range s.res.Records {
		// The first sample at or after r.done closes r's window.
		i, _ := slices.BinarySearchFunc(s.samples, r.done, func(x sample, t time.Time) int { return x.at.Compare(t) })
		w := ws[min(max(i-1, 0), len(ws)-1)]
		w.recs = append(w.recs, r)
	}
	return ws
}

// quiet keeps the share of windows in which the host stole the least CPU
// time, together with every window that ties with the last one kept, so on
// a host that steals nothing it keeps them all.
func quiet(ws []*window, share float64) []*window {
	if len(ws) == 0 {
		return nil
	}
	shares := make([]float64, len(ws))
	for i, w := range ws {
		shares[i] = w.stealShare()
	}
	slices.Sort(shares)
	limit := shares[min(max(int(math.Round(share*float64(len(ws))))-1, 0), len(ws)-1)]
	return slices.DeleteFunc(slices.Clone(ws), func(w *window) bool { return w.stealShare() > limit })
}

// summarize counts every request of every segment into the report, then
// computes the latency, throughput, SLO and CPU metrics over the quietest
// cfg.QuietShare of all segments' sample windows, pooling their requests:
// a neighbour on the host slows the requests around it without the program
// doing anything, and steal time is the host's own record of it.
func summarize(rep *report, o options, cfg *Config, w Workload, segs []*segment) {
	limit := time.Duration(w.LatencyLimitMs * float64(time.Millisecond))
	worst := 0.0
	var firstErr error
	for _, s := range segs {
		for _, r := range s.res.Records {
			rep.attempted++
			switch {
			case r.wrong:
				rep.wrong++
			case !r.ok:
				rep.failed++
			}
			if r.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.req.Model, r.err)
			}
			worst = max(worst, r.errRatio)
		}
	}
	wins := make([][]*window, len(segs))
	var all []*window
	for i, s := range segs {
		wins[i] = s.windows()
		all = append(all, wins[i]...)
	}
	share := cfg.QuietShare
	if o.smoke {
		share = 1
	}
	kept := map[*window]bool{}
	for _, win := range quiet(all, share) {
		kept[win] = true
	}

	var lat, segP99, setups, hwm []float64
	byModel := map[string][]float64{}
	attempted, ok, inSLO := 0, 0, 0
	var dur, cpu time.Duration
	for i, s := range segs {
		setups = append(setups, s.setup.Seconds())
		hwm = append(hwm, float64(s.after.HWMkiB)/1024)
		var segLat []float64
		for _, r := range s.res.Records {
			if r.ok && !r.wrong {
				segLat = append(segLat, ms(r.latency))
			}
		}
		var keptLat []float64
		nKept := 0
		for _, win := range wins[i] {
			if !kept[win] {
				continue
			}
			nKept++
			dur += win.dur
			cpu += win.cpu
			for _, r := range win.recs {
				attempted++
				if !r.ok || r.wrong {
					continue
				}
				ok++
				lat = append(lat, ms(r.latency))
				keptLat = append(keptLat, ms(r.latency))
				byModel[r.req.Model] = append(byModel[r.req.Model], ms(r.latency))
				if r.latency <= limit {
					inSLO++
				}
			}
		}
		if len(keptLat) > 0 {
			segP99 = append(segP99, quantile(keptLat, 0.99))
		}
		rep.linef("segment %d: host steal %.2f%%, %d of %d windows kept, %d requests in %.3fs, setup %.4fs, p50 %.4g ms, p99 %.4g ms (kept windows: %.4g ms), VmHWM %.4g MB, %.4g CPU ms/req",
			i, 100*s.stealShare(), nKept, len(wins[i]), len(s.res.Records), s.res.Elapsed.Seconds(), s.setup.Seconds(),
			quantile(segLat, 0.5), quantile(segLat, 0.99), quantile(keptLat, 0.99), float64(s.after.HWMkiB)/1024,
			ratio(ms(s.after.CPU-s.before.CPU), float64(len(segLat))))
	}
	if firstErr != nil {
		rep.linef("first error: %v", firstErr)
	}
	if !o.smoke && attempted < cfg.MinRequests {
		rep.linef("WARNING: %d requests in the kept windows, fewer than the %d a run should have; raise --seconds", attempted, cfg.MinRequests)
	}
	rep.linef("%s loop, %d connection(s)%s, latency limit %.0f ms: %d requests over %d segments, %d failed, %d wrong; worst output error %.3g of tolerance",
		w.Loop, w.Connections, offered(w), w.LatencyLimitMs, rep.attempted, len(segs), rep.failed, rep.wrong, worst)
	rep.linef("fail_ratio %.6g (failed/attempted), wrong_outputs %d (reported as the result's failed and correct fields)",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.wrong)
	if len(w.Models) > 1 {
		for _, m := range w.Models {
			rep.linef("  %-12s %5d ok, p50 %.4g ms, p99 %.4g ms", m, len(byModel[m]), quantile(byModel[m], 0.5), quantile(byModel[m], 0.99))
		}
	}
	rep.add("latency_p50_ms", quantile(lat, 0.50))
	rep.add("latency_p99_ms", median(segP99))
	rep.add("throughput_rps", ratio(float64(ok), dur.Seconds()))
	rep.add("slo_ratio", ratio(float64(inSLO), float64(attempted)))
	rep.add("setup_s", median(setups))
	rep.add("rss_peak_mb", median(hwm))
	rep.add("cpu_ms_per_req", ratio(ms(cpu), float64(ok)))
	rep.linef("latency_p50_ms, throughput, slo and CPU pool the %d requests that ended in the %d kept windows (%.1fs of %d); latency_p99_ms is the median over segments of each segment's p99 in its kept windows (pooled: %.4g ms); setup_s is the median over all %d set-ups and rss_peak_mb the median VmHWM of all %d daemons",
		attempted, len(kept), dur.Seconds(), len(all), quantile(lat, 0.99), len(segs), len(segs))
}

func offered(w Workload) string {
	if w.Loop == "open" {
		return fmt.Sprintf(", offered %.0f req/s", w.RateRPS)
	}
	return ""
}
