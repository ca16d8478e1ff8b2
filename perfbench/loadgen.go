package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// record is one request's outcome. The checker goroutine fills in wrong
// and errRatio after the timing path has moved on.
type record struct {
	req      *Request
	latency  time.Duration // from send (closed loop) or due time (open loop) to last response byte
	lag      time.Duration // open loop: send - due; closed loop: previous response -> this send
	done     time.Time     // when the response ended or the request failed
	ok       bool          // transport succeeded and status was 200
	wrong    bool          // 200 whose outputs differ from the reference
	errRatio float64       // worst output error as a share of the tolerance
	err      error
}

// LoadResult aggregates one timed phase of the generator.
type LoadResult struct {
	Records []*record
	Elapsed time.Duration // first send to last completion
}

// loadGen drives a daemon's POST /v1/infer over at most conns keep-alive
// connections, checking every response against its reference off the
// timing path.
type loadGen struct {
	client *http.Client
	url    string
	rs     *RequestSet
	tol    Tolerance
	conns  int
}

func newLoadGen(baseURL string, conns int, rs *RequestSet, tol Tolerance) *loadGen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadGen{
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:    baseURL + "/v1/infer",
		rs:     rs,
		tol:    tol,
		conns:  conns,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// pick draws a model uniformly, then one of its inputs uniformly.
func (rs *RequestSet) pick(rng *rand.Rand) *Request {
	reqs := rs.ByModel[rs.Models[rng.IntN(len(rs.Models))]]
	return reqs[rng.IntN(len(reqs))]
}

// send posts one pre-encoded body and reads the whole response into buf.
func (g *loadGen) send(ctx context.Context, req *Request, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(req.Body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// checker verifies response bodies on its own goroutine.
type checker struct {
	in   chan checkJob
	done chan struct{}
	tol  Tolerance
}

type checkJob struct {
	rec  *record
	body []byte
}

func newChecker(tol Tolerance, capacity int) *checker {
	// The buffer absorbs response bursts so a send never waits on checking;
	// callers size it to the number of sends they can make.
	c := &checker{in: make(chan checkJob, capacity), done: make(chan struct{}), tol: tol}
	go func() {
		defer close(c.done)
		for j := range c.in {
			ratio, err := checkResponse(j.body, j.rec.req, c.tol)
			j.rec.errRatio = ratio
			if err != nil || ratio > 1 {
				j.rec.wrong = true
				if err == nil {
					err = fmt.Errorf("output off by %.3g x tolerance", ratio)
				}
				j.rec.err = err
			}
		}
	}()
	return c
}

// finish waits until every queued response has been checked.
func (c *checker) finish() {
	close(c.in)
	<-c.done
}

// complete fills in a record after its response arrived and queues the
// body for checking.
func (c *checker) complete(rec *record, status int, err error, body *bytes.Buffer) {
	switch {
	case err != nil:
		rec.err = err
	case status != http.StatusOK:
		rec.err = fmt.Errorf("status %d: %.200s", status, body.String())
	default:
		rec.ok = true
		c.in <- checkJob{rec: rec, body: bytes.Clone(body.Bytes())}
	}
}

// run executes the workload's traffic shape for dur and returns every
// request's record once all responses are checked.
func (g *loadGen) run(ctx context.Context, w Workload, dur time.Duration, seed uint64) LoadResult {
	if w.Loop == "open" {
		return g.openLoop(ctx, w.RateRPS, dur, seed)
	}
	return g.closedLoop(ctx, dur, seed)
}

// closedLoop runs conns callers, each sending its next request as soon as
// the previous response arrived, until dur has passed.
func (g *loadGen) closedLoop(ctx context.Context, dur time.Duration, seed uint64) LoadResult {
	chk := newChecker(g.tol, 1<<16)
	start := time.Now()
	deadline := start.Add(dur)
	perWorker := make([][]*record, g.conns)
	ends := make([]time.Time, g.conns)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var buf bytes.Buffer
			prev := time.Now()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				rec := &record{req: g.rs.pick(rng)}
				sent := time.Now()
				status, err := g.send(ctx, rec.req, &buf)
				done := time.Now()
				rec.latency, rec.lag, rec.done = done.Sub(sent), sent.Sub(prev), done
				prev = done
				chk.complete(rec, status, err, &buf)
				perWorker[c] = append(perWorker[c], rec)
			}
			ends[c] = prev
		}(c)
	}
	wg.Wait()
	chk.finish()
	res := LoadResult{Records: slices.Concat(perWorker...)}
	for _, e := range ends {
		res.Elapsed = max(res.Elapsed, e.Sub(start))
	}
	return res
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at  time.Duration // offset of the due time from the phase start
	req *Request
}

// schedule places round(rate*dur) arrivals uniformly at random in [0, dur)
// and sorts them: a Poisson process conditioned on its count, so every
// seed offers exactly the same load.
func schedule(rs *RequestSet, rate float64, dur time.Duration, seed uint64) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e)) // stream "open"
	n := max(1, int(rate*dur.Seconds()+0.5))
	out := make([]arrival, n)
	for i := range out {
		out[i].at = time.Duration(rng.Int64N(int64(dur)))
	}
	slices.SortFunc(out, func(a, b arrival) int { return int(a.at - b.at) })
	for i := range out {
		out[i].req = rs.pick(rng)
	}
	return out
}

// openLoop sends a seeded schedule at a fixed rate over conns connections.
// Each request is timed from when it was due, so a stall also charges the
// requests queued behind it.
func (g *loadGen) openLoop(ctx context.Context, rate float64, dur time.Duration, seed uint64) LoadResult {
	sched := schedule(g.rs, rate, dur, seed)
	chk := newChecker(g.tol, len(sched))
	recs := make([]*record, len(sched))
	bufs := make([]bytes.Buffer, g.conns)
	elapsed := paced(ctx, sched, g.conns, func(worker, i int, due time.Time) {
		rec := &record{req: sched[i].req}
		recs[i] = rec
		if err := ctx.Err(); err != nil {
			rec.err, rec.done = err, time.Now()
			return
		}
		sent := time.Now()
		status, err := g.send(ctx, rec.req, &bufs[worker])
		rec.done = time.Now()
		rec.latency, rec.lag = rec.done.Sub(due), sent.Sub(due)
		chk.complete(rec, status, err, &bufs[worker])
	})
	chk.finish()
	return LoadResult{Records: recs, Elapsed: elapsed}
}

// paced runs call for every arrival of sched on conns workers, each worker
// taking the next arrival in order and waiting until it is due. It returns
// the time from the start to the last call's end.
func paced(ctx context.Context, sched []arrival, conns int, call func(worker, i int, due time.Time)) time.Duration {
	var next atomic.Int64
	ends := make([]time.Duration, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sched); i = int(next.Add(1) - 1) {
				due := start.Add(sched[i].at)
				if d := time.Until(due); d > 0 && ctx.Err() == nil {
					time.Sleep(d)
				}
				call(c, i, due)
				ends[c] = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return slices.Max(ends)
}
