package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"loki/internal/client"
	"loki/internal/rng"
	"loki/internal/survey"
)

// arrival is one scheduled operation: a submit of the next prepared
// response, or an aggregate read of one survey.
type arrival struct {
	at     time.Duration // offset from the phase start
	read   bool
	survey string // read target
}

// schedule draws a Poisson arrival sequence at rate per second over d,
// each arrival a read with probability readFrac. Read targets follow
// the workload's survey popularity.
func schedule(r *rng.RNG, rate float64, d time.Duration, readFrac float64, in *inputs) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += r.Exponential(rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		a := arrival{at: at}
		if r.Float64() < readFrac {
			a.read = true
			idx := r.Intn(len(in.surveys))
			if in.readZipf != nil {
				idx = in.readZipf.Draw(r)
			}
			a.survey = in.surveys[idx].ID
		}
		out = append(out, a)
	}
}

// generator drives the frontend open-loop: one arrival goroutine
// releases operations on their Poisson schedule whatever the system is
// doing, one collector settles submit outcomes, and nproc read workers
// (one per connection) issue the GETs. Every operation is timed from
// its due time, so a stall shows as latency of everything queued
// behind it, and the arrival goroutine's own lateness is recorded.
type generator struct {
	hc        *http.Client
	cl        *client.Client
	baseURL   string
	token     string
	readers   int
	subCfg    client.SubmitterConfig
	inputs    *inputs
	next      int // index of the next unsent submit input
	batches   int64
	records   int64
	maxBehind time.Duration
}

// phaseResult is one open-loop window's outcome.
type phaseResult struct {
	offered  int // arrivals scheduled in the window
	issued   int // arrivals actually sent (the rest were abandoned late)
	submitMS []float64
	readMS   []float64
	// failedSubmits/failedReads count refused or failed operations;
	// acked are the durably stored submits, in arrival order.
	failedSubmits int
	failedReads   int
	acked         []*survey.Response
	firstErr      error
	lateMS        []float64 // per issued arrival, in arrival order
}

func (p *phaseResult) failed() int { return p.failedSubmits + p.failedReads }

func (p *phaseResult) completed() int { return len(p.submitMS) + len(p.readMS) }

func (p *phaseResult) note(err error) {
	if p.firstErr == nil {
		p.firstErr = err
	}
}

type pendingSubmit struct {
	due  time.Time
	resp *survey.Response
	done <-chan client.SubmitOutcome
}

type readReq struct {
	due    time.Time
	survey string
}

type readResult struct {
	ms  float64
	err error
}

// run executes one window of scheduled arrivals. An arrival that the generator
// could not send within maxBehind of its due time is abandoned, with
// the rest of the window: the system is past saturation and waiting
// longer would only stretch the run.
func (g *generator) run(ctx context.Context, sched []arrival) (*phaseResult, error) {
	res := &phaseResult{offered: len(sched)}
	sub := g.cl.NewSubmitter(g.subCfg)
	pending := make(chan pendingSubmit, 1<<16) // a window's submits never exceed this at the rates run
	reads := make(chan readReq, 1<<16)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for p := range pending {
			out := <-p.done
			lat := msSince(p.due)
			if out.Err != nil {
				res.failedSubmits++
				res.note(out.Err)
				continue
			}
			res.submitMS = append(res.submitMS, lat)
			res.acked = append(res.acked, p.resp)
		}
	}()
	readResults := make([][]readResult, g.readers)
	readDone := make(chan struct{}, g.readers)
	for w := 0; w < g.readers; w++ {
		go func(w int) {
			defer func() { readDone <- struct{}{} }()
			for rq := range reads {
				err := g.read(ctx, rq.survey)
				readResults[w] = append(readResults[w], readResult{ms: msSince(rq.due), err: err})
			}
		}(w)
	}

	start := time.Now()
	var sendErr error
	for _, a := range sched {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		behind := time.Since(due)
		if behind > g.maxBehind {
			break
		}
		res.lateMS = append(res.lateMS, float64(behind)/float64(time.Millisecond))
		res.issued++
		if a.read {
			reads <- readReq{due: due, survey: a.survey}
			continue
		}
		if g.next >= len(g.inputs.submits) {
			sendErr = fmt.Errorf("input pool exhausted after %d submits", g.next)
			break
		}
		resp := g.inputs.submits[g.next]
		g.next++
		done, err := sub.Submit(ctx, resp)
		if err != nil {
			res.failedSubmits++
			res.note(err)
			continue
		}
		pending <- pendingSubmit{due: due, resp: resp, done: done}
	}
	close(reads)
	close(pending)
	sub.Close()
	<-collected
	for w := 0; w < g.readers; w++ {
		<-readDone
	}
	st := sub.Stats()
	g.batches += st.Batches
	g.records += st.Submitted
	for _, rs := range readResults {
		for _, r := range rs {
			if r.err != nil {
				res.failedReads++
				res.note(r.err)
				continue
			}
			res.readMS = append(res.readMS, r.ms)
		}
	}
	return res, sendErr
}

// read fetches one survey's aggregate and drains the body.
func (g *generator) read(ctx context.Context, surveyID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.baseURL+"/api/v1/surveys/"+surveyID+"/aggregate", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+g.token)
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read %s: HTTP %d", surveyID, resp.StatusCode)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// newGeneratorHTTP builds the generator's HTTP client: at most conns
// connections to the frontend, enforced by the transport.
func newGeneratorHTTP(conns int, wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Timeout: 10 * time.Second, Transport: rt}
}

// percentile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// withFailures returns the latencies sorted, with n failed operations
// counted as infinitely late: a refused operation misses every limit.
func withFailures(ms []float64, n int) []float64 {
	out := append([]float64(nil), ms...)
	for i := 0; i < n; i++ {
		out = append(out, math.Inf(1))
	}
	sort.Float64s(out)
	return out
}

// lateGrows reports whether the generator fell progressively further
// behind its schedule: the last quarter's median lateness is both above
// 10ms and more than double the first quarter's.
func lateGrows(lateMS []float64) bool {
	q := len(lateMS) / 4
	if q < 10 {
		return false
	}
	first := append([]float64(nil), lateMS[:q]...)
	last := append([]float64(nil), lateMS[len(lateMS)-q:]...)
	sort.Float64s(first)
	sort.Float64s(last)
	f, l := percentile(first, 0.5), percentile(last, 0.5)
	return l > 10 && l > 2*f+1
}

// sustainable applies the benchmark's definition of a rate the system
// keeps up with: each operation type's tail latency within its limit
// (the p99 where the probe holds at least 1000 samples of that type,
// else the p90 where it holds 100; failures count as misses), at least
// minAcked of the offered operations completed, the generator's
// lateness not growing, and no operation failed.
func sustainable(p *phaseResult, cfg *benchConfig) (bool, string) {
	if p.failed() > 0 {
		return false, "failures"
	}
	for _, c := range []struct {
		name  string
		ms    []float64
		limit float64
	}{{"submit", p.submitMS, cfg.LimitsMS.SubmitP99}, {"read", p.readMS, cfg.LimitsMS.ReadP99}} {
		s := withFailures(c.ms, 0)
		if len(s) < 100 {
			continue
		}
		if v, q := tail(s); v > c.limit {
			return false, fmt.Sprintf("%s p%g %.1fms", c.name, q*100, v)
		}
	}
	if float64(p.completed()) < cfg.Sustainable.MinAckedFrac*float64(p.offered) {
		return false, fmt.Sprintf("completed %d of %d", p.completed(), p.offered)
	}
	if lateGrows(p.lateMS) {
		return false, "lateness grows"
	}
	return true, ""
}
