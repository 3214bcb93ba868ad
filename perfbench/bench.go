package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/rng"
	"loki/internal/server"
	"loki/internal/survey"
)

// setupReps is how many times a run sets the deployment up; setup_s is
// their median. The last set-up is the one measured.
const setupReps = 3

// maxBehind is how far the generator may fall behind its schedule
// before it abandons the rest of a window as past saturation.
const maxBehind = time.Second

// bench is one run's state.
type bench struct {
	cfg     *benchConfig
	wl      *workloadConfig
	name    string
	seed    uint64
	tr      *tracer
	logger  *log.Logger
	root    string
	surveys []*survey.Survey
	in      *inputs
	c       *cluster
	gen     *generator
	acked   []*survey.Response
	// attempted and failed count generator operations across phases.
	attempted, failed int
	firstErr          error
	totalSeconds      float64
}

func surveysFor(name string) ([]*survey.Survey, error) {
	switch name {
	case "ingest":
		return ingestSurveys(), nil
	case "dashboard":
		return dashboardSurveys(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (ingest, dashboard)", name)
}

func run(name string, seed uint64, seconds int, traced bool) (*result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	surveys, err := surveysFor(name)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, wl: cfg.Workloads[name], name: name, seed: seed, surveys: surveys, totalSeconds: float64(seconds)}
	if traced {
		b.tr = newTracer()
	}
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	maxEps, err := maxWorkerEpsilon(obf, surveys, b.wl.SurveysPerWorker, defaultBudgetDelta)
	if err != nil {
		return nil, err
	}
	if maxEps > cfg.Topology.BudgetCapEpsilon {
		return nil, fmt.Errorf("budget cap ε=%g is below the largest valid worker spend ε=%g", cfg.Topology.BudgetCapEpsilon, maxEps)
	}
	b.root = filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.root)
	// The roles log every request, as loki-server does; the log goes to
	// a file beside the build so the benchmark's own output stays short.
	logFile, err := os.Create(filepath.Join(".bench_build", "loki-"+name+".log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	b.logger = log.New(logFile, "loki ", log.LstdFlags)
	m, err := b.measure(time.Duration(seconds) * time.Second)
	if b.c != nil {
		if cerr := b.c.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	if b.failed > 0 {
		res.Correct = false
		return res, fmt.Errorf("%d of %d operations failed, first: %w", b.failed, b.attempted, b.firstErr)
	}
	return res, nil
}

// measure runs every phase and returns the metrics the run reports.
func (b *bench) measure(total time.Duration) (map[string]metric, error) {
	// Dirty pages other work left behind would be written back during
	// the measurement; flush them first, and again after the set-ups,
	// which write and delete whole deployments.
	syscall.Sync()
	fsyncMS, err := fsyncProbe(b.root, 50)
	if err != nil {
		return nil, err
	}
	setups, err := b.setUp()
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	gcfg := b.cfg.Generator
	var wrap func(http.RoundTripper) http.RoundTripper
	if b.tr != nil {
		wrap = func(rt http.RoundTripper) http.RoundTripper {
			return &tracedTransport{inner: rt, t: b.tr, classify: clientClass}
		}
	}
	hc := newGeneratorHTTP(nproc, wrap)
	cl, err := client.New(client.Config{BaseURL: b.c.front.ts.URL, Schedule: core.DefaultSchedule(), Seed: b.seed, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	b.gen = &generator{
		hc: hc, cl: cl, baseURL: b.c.front.ts.URL, token: b.c.token(), readers: nproc, inputs: b.in,
		maxBehind: maxBehind,
		subCfg: client.SubmitterConfig{
			MaxBatch: gcfg.SubmitterMaxBatch, MaxWait: time.Duration(gcfg.SubmitterMaxWaitMS) * time.Millisecond,
			MaxInflight: min(gcfg.SubmitterMaxInflight, nproc), MaxAttempts: gcfg.SubmitterMaxAttempts, Seed: b.seed,
		},
	}
	ctx := context.Background()
	rate := b.wl.OfferedRPS
	arrivals := rng.New(b.seed ^ 0x5eed0a11)

	// Warm-up: the set-ups' garbage is collected, then two seconds at
	// the offered rate let connections, caches and lazily built state
	// settle before anything is timed.
	runtime.GC()
	syscall.Sync()
	if _, err := b.window(ctx, arrivals, rate, 2*time.Second); err != nil {
		return nil, err
	}
	if b.tr != nil {
		b.tr.take()
	}

	// Phase 1: the fixed offered rate.
	fixedDur := time.Duration(float64(total) * b.cfg.Phases.FixedRateShare)
	ing0, cache0, err := b.layerCounters()
	if err != nil {
		return nil, err
	}
	var mon *monitor
	if b.tr != nil {
		mon = startMonitor(b.c)
	}
	rt0, cpu0 := sampleRuntime(), cpuTime()
	steal0, total0 := hostSteal()
	// The fixed-rate phase runs as consecutive windows: each window's
	// tail latency is taken on its own and the run reports their
	// median, so one stall of the shared machine moves one window, not
	// the run.
	var windows []*phaseResult
	for k := 0; k < b.cfg.Phases.FixedRateWindows; k++ {
		w, err := b.window(ctx, arrivals, rate, fixedDur/time.Duration(b.cfg.Phases.FixedRateWindows))
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
	}
	fixed := merged(windows)
	cpu := cpuTime() - cpu0
	rt1 := sampleRuntime()
	steal1, total1 := hostSteal()
	stealFrac := 0.0
	if total1 > total0 {
		stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	var goroutinesMax, lagMax int64
	if mon != nil {
		goroutinesMax, lagMax = mon.stop()
	}
	ing1, cache1, err := b.layerCounters()
	if err != nil {
		return nil, err
	}
	var loadSnap traceSnapshot
	if b.tr != nil {
		loadSnap = b.tr.take()
	}
	stored := len(b.in.preload) + len(b.in.tail) + len(b.acked)
	// Bytes on disk are counted after a checkpoint flush and compaction
	// on every node, so the figure does not depend on where the
	// checkpointer's timer fell in the run.
	var diskBytes int64
	for _, n := range b.c.nodes {
		if err := n.srv.FlushCheckpoints(); err != nil {
			return nil, err
		}
		if err := n.ckpt.Compact(); err != nil {
			return nil, err
		}
		nb, err := dirBytes(n.dir)
		if err != nil {
			return nil, err
		}
		diskBytes += nb
	}

	// Phase 2: restart cycles of node 0.
	rs, err := b.restarts()
	if err != nil {
		return nil, err
	}
	var restartSnap traceSnapshot
	if b.tr != nil {
		restartSnap = b.tr.take()
	}
	if err := b.c.waitFrontendHealthy(10 * time.Second); err != nil {
		return nil, err
	}

	// Phase 3: the highest sustainable rate of the workload's mix.
	maxRPS, probes, err := b.search(ctx, arrivals, rate, fixed, time.Duration(float64(total)*b.cfg.Phases.SearchProbeShare))
	if err != nil {
		return nil, err
	}

	// Phase 4: output checks over everything the run stored.
	if err := b.check(); err != nil {
		return nil, err
	}

	// Latencies, restart_s and replica_resync_s (medians over the restart
	// cycles) are printed by every run and reported by the traced run
	// only; none is gated end to end. On a small shared machine other
	// tenants take CPU time from this one in phases of minutes: between
	// runs of the same code the latency medians spread by 29% to 91% of
	// their value (IQR over median, ten runs), the tails
	// by up to 3x, and restart and resync by up to a third, past any
	// bound the benchmark may set, while CPU per operation, bytes on
	// disk, set-up time and peak memory stayed within theirs
	// (host.steal_frac reports the share of CPU time taken).
	//
	// The p90 is taken per window and a run reports the median over
	// windows; the p50 and p99 are taken over the whole phase, which
	// holds enough samples for them except the ingest reads' p99 (about
	// 500 reads, so fewer than ten lie beyond it).
	submitMS := withFailures(fixed.submitMS, fixed.failedSubmits)
	readMS := withFailures(fixed.readMS, fixed.failedReads)
	var subP90, readP90 []float64
	for _, w := range windows {
		subP90 = append(subP90, percentile(withFailures(w.submitMS, w.failedSubmits), 0.9))
		readP90 = append(readP90, percentile(withFailures(w.readMS, w.failedReads), 0.9))
	}
	late := sortedCopy(fixed.lateMS)
	e2e := map[string]metric{
		"cpu_us_per_op":      {float64(cpu.Microseconds()) / float64(max(1, fixed.completed())), "us"},
		"bytes_per_response": {float64(diskBytes) / float64(stored), "B"},
		"setup_s":            {median(setups), "s"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
	}
	fmt.Printf("workload %s seed %d: nproc %d, fsync probe p50 %.3fms, offered %.0f ops/s for %v in %d windows, take-up none/low/medium/high %v\n",
		b.name, b.seed, nproc, fsyncMS, rate, fixedDur, len(windows), b.in.levels)
	fmt.Printf("  submits: %d, p50 %.2f ms, p90 per window %.1f ms, p99 %.1f ms\n", len(fixed.submitMS), percentile(submitMS, 0.5), subP90, percentile(submitMS, 0.99))
	fmt.Printf("  reads: %d, p50 %.2f ms, p90 per window %.1f ms, p99 %.1f ms\n", len(fixed.readMS), percentile(readMS, 0.5), readP90, percentile(readMS, 0.99))
	fmt.Printf("  failed %d, generator lateness p99 %.2fms, host CPU steal %.1f%%\n", fixed.failed(), percentile(late, 0.99), 100*stealFrac)
	fmt.Printf("  restarts: %.3f s; resyncs: %.3f s; set-ups: %.3f s\n", rs.restart, rs.resync, setups)
	for _, p := range probes {
		fmt.Printf("  probe %.0f ops/s: %s\n", p.rate, p.verdict)
	}
	fmt.Printf("  max sustainable %.0f ops/s\n", maxRPS)
	if b.tr == nil {
		return e2e, nil
	}
	lm := b.layerMetrics(loadSnap, restartSnap, fixed, rt0, rt1, ing0, ing1, cache0, cache1, rs)
	lm["runtime.goroutines_max"] = metric{float64(goroutinesMax), "count"}
	lm["replica.lag_max_records"] = metric{float64(lagMax), "count"}
	lm["disk.fsync_probe_p50_ms"] = metric{fsyncMS, "ms"}
	lm["host.steal_frac"] = metric{stealFrac, "ratio"}
	lm["loadgen.late_p99_ms"] = metric{percentile(late, 0.99), "ms"}
	for name, m := range e2e {
		lm["traced."+name] = m
	}
	lm["traced.submit_p50_ms"] = metric{percentile(submitMS, 0.5), "ms"}
	lm["traced.read_p50_ms"] = metric{percentile(readMS, 0.5), "ms"}
	lm["traced.submit_p90_ms"] = metric{median(subP90), "ms"}
	lm["traced.read_p90_ms"] = metric{median(readP90), "ms"}
	lm["traced.submit_p99_ms"] = metric{percentile(submitMS, 0.99), "ms"}
	lm["traced.read_p99_ms"] = metric{percentile(readMS, 0.99), "ms"}
	lm["traced.max_sustainable_rps"] = metric{maxRPS, "ops/s"}
	lm["traced.restart_s"] = metric{median(rs.restart), "s"}
	lm["traced.replica_resync_s"] = metric{median(rs.resync), "s"}
	return lm, nil
}

// tail returns the highest of p99 and p90 that has at least ten samples
// beyond it (the sample's own maximum when neither has), and which one.
func tail(sorted []float64) (float64, float64) {
	for _, q := range []float64{0.99, 0.9} {
		if float64(len(sorted))*(1-q) >= 10 {
			return percentile(sorted, q), q
		}
	}
	return percentile(sorted, 1), 1
}

func first(v, _ float64) float64 { return v }

// merged pools consecutive windows into one result.
func merged(ws []*phaseResult) *phaseResult {
	out := &phaseResult{}
	for _, w := range ws {
		out.offered += w.offered
		out.issued += w.issued
		out.submitMS = append(out.submitMS, w.submitMS...)
		out.readMS = append(out.readMS, w.readMS...)
		out.failedSubmits += w.failedSubmits
		out.failedReads += w.failedReads
		out.lateMS = append(out.lateMS, w.lateMS...)
	}
	return out
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setUp builds the deployment setupReps times, keeping the last, and
// returns each set-up's duration: topology start, survey publishing,
// preload, checkpoint flush, the tail past it, and replica catch-up.
// Generating the inputs is not part of it.
func (b *bench) setUp() ([]float64, error) {
	var durs []float64
	for k := 0; k < setupReps; k++ {
		if b.c != nil {
			if err := b.c.close(); err != nil {
				return nil, err
			}
			b.c = nil
		}
		dir := filepath.Join(b.root, fmt.Sprintf("setup%d", k))
		start := time.Now()
		c, err := startCluster(b.cfg, dir, b.tr, b.logger, b.surveys)
		b.c = c
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		if b.in == nil {
			if err := b.buildInputs(); err != nil {
				return nil, err
			}
		}
		start = time.Now()
		if err := b.preload(); err != nil {
			return nil, err
		}
		durs = append(durs, (d + time.Since(start)).Seconds())
		if k < setupReps-1 {
			if err := b.c.close(); err != nil {
				return nil, err
			}
			b.c = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			runtime.GC()
		}
	}
	return durs, nil
}

// buildInputs prepares every response the run can send. The pool covers
// the warm-up, the fixed-rate phase and the worst case of the search.
func (b *bench) buildInputs() error {
	cl, err := client.New(client.Config{BaseURL: b.c.front.ts.URL, Schedule: core.DefaultSchedule(), Seed: b.seed})
	if err != nil {
		return err
	}
	total := b.totalSeconds
	ops := b.wl.OfferedRPS * (2 + total*b.cfg.Phases.FixedRateShare)
	lo, hi := b.wl.OfferedRPS, b.wl.OfferedRPS*b.cfg.Sustainable.SearchSpan
	for hi/lo > 1+b.cfg.Sustainable.SearchStep {
		mid := math.Sqrt(lo * hi)
		ops += 2 * mid * total * b.cfg.Phases.SearchProbeShare
		lo = mid
	}
	submits := int(ops*(1-b.wl.ReadFrac)*1.05) + 200
	b.in, err = buildInputs(context.Background(), cl, b.wl, b.surveys, submits, b.seed)
	return err
}

// preload writes the workload's preloaded responses straight into the
// nodes, opens and checkpoints every survey's live aggregate, adds the
// tail past the checkpoints, and waits for the replicas.
func (b *bench) preload() error {
	if err := b.c.appendDirect(b.in.preload); err != nil {
		return err
	}
	if len(b.in.tail) > 0 {
		for _, n := range b.c.nodes {
			for _, sv := range b.surveys {
				if _, err := aggregateOf(n.srv, b.c.token(), sv.ID); err != nil {
					return err
				}
			}
			if err := n.srv.FlushCheckpoints(); err != nil {
				return err
			}
		}
		if err := b.c.appendDirect(b.in.tail); err != nil {
			return err
		}
	}
	return b.c.waitReplicas(60 * time.Second)
}

// window runs one open-loop window and folds its outcome into the run's
// totals.
func (b *bench) window(ctx context.Context, r *rng.RNG, rate float64, d time.Duration) (*phaseResult, error) {
	sched := schedule(r, rate, d, b.wl.ReadFrac, b.in)
	res, err := b.gen.run(ctx, sched)
	if err != nil {
		return nil, err
	}
	b.attempted += res.issued
	b.failed += res.failed()
	if res.firstErr != nil && b.firstErr == nil {
		b.firstErr = res.firstErr
	}
	b.acked = append(b.acked, res.acked...)
	return res, nil
}

type probeResult struct {
	rate    float64
	verdict string
}

// search bisects, in log space, for the highest rate that meets every
// sustainability condition, to within the configured step. The fixed
// phase at the offered rate is the first point.
func (b *bench) search(ctx context.Context, r *rng.RNG, rate float64, fixed *phaseResult, probe time.Duration) (float64, []probeResult, error) {
	span, step := b.cfg.Sustainable.SearchSpan, b.cfg.Sustainable.SearchStep
	lo, hi := rate, rate*span
	var probes []probeResult
	if ok, why := sustainable(fixed, b.cfg); !ok {
		lo, hi = rate/span, rate
		probes = append(probes, probeResult{rate, "fixed rate not sustainable: " + why})
	}
	for hi/lo > 1+step {
		mid := math.Sqrt(lo * hi)
		res, err := b.window(ctx, r, mid, probe)
		if err != nil {
			return 0, nil, err
		}
		ok, why := sustainable(res, b.cfg)
		if !ok {
			// A short probe can fail on one stall of the shared disk or
			// CPU; a rate fails only when a second probe fails too.
			probes = append(probes, probeResult{mid, why + "; probing again"})
			if res, err = b.window(ctx, r, mid, probe); err != nil {
				return 0, nil, err
			}
			ok, why = sustainable(res, b.cfg)
		}
		if ok {
			lo = mid
			why = fmt.Sprintf("sustainable (submit tail %.1fms, read tail %.1fms, lateness p99 %.1fms)",
				first(tail(withFailures(res.submitMS, 0))), first(tail(withFailures(res.readMS, 0))), percentile(sortedCopy(res.lateMS), 0.99))
		} else {
			hi = mid
		}
		probes = append(probes, probeResult{mid, why})
	}
	return lo, probes, nil
}

// restartTimes are the restart phase's per-cycle measurements.
type restartTimes struct {
	restart, resync, nodeOpen, firstRead, storeOpen, ckptOpen []float64
	resets, bootstraps                                        int
}

// restarts closes and reopens node 0 the configured number of times.
// Each cycle times node close → reopen → the first aggregate of every
// survey, which must equal the aggregate before the restart, then node
// reopen → its replica at lag 0 with the node's aggregates. Every
// acked record must still be on the node.
func (b *bench) restarts() (*restartTimes, error) {
	c, n := b.c, b.c.nodes[0]
	rt := &restartTimes{}
	for k := 0; k < b.cfg.Phases.RestartCycles; k++ {
		before := make(map[string]*server.AggregateResult, len(b.surveys))
		for _, sv := range b.surveys {
			agg, err := aggregateOf(n.srv, c.token(), sv.ID)
			if err != nil {
				return nil, err
			}
			before[sv.ID] = agg
		}
		syscall.Sync()
		t0 := time.Now()
		if err := c.closeNode(n); err != nil {
			return nil, err
		}
		tOpen := time.Now()
		if err := c.openNode(n); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, sv := range b.surveys {
			agg, err := aggregateOf(n.srv, c.token(), sv.ID)
			if err != nil {
				return nil, err
			}
			if err := sameAggregate(agg, before[sv.ID]); err != nil {
				return nil, fmt.Errorf("restart %d: aggregate of %s changed: %w", k, sv.ID, err)
			}
		}
		t2 := time.Now()
		// Start the replica's next poll now rather than when its timer
		// fires, so the resync time is the resync's own work.
		c.replicas[0].rep.SyncOnce()
		if err := b.waitReplicaEqual(0, 60*time.Second); err != nil {
			return nil, fmt.Errorf("restart %d: %w", k, err)
		}
		t3 := time.Now()
		rt.restart = append(rt.restart, t2.Sub(t0).Seconds())
		rt.resync = append(rt.resync, t3.Sub(t1).Seconds())
		rt.nodeOpen = append(rt.nodeOpen, t1.Sub(tOpen).Seconds())
		rt.firstRead = append(rt.firstRead, t2.Sub(t1).Seconds())
		rt.storeOpen = append(rt.storeOpen, n.storeOpen.Seconds())
		rt.ckptOpen = append(rt.ckptOpen, n.ckptOpen.Seconds())
		if err := checkPresent(c, n, b.in.preload, b.in.tail, b.acked); err != nil {
			return nil, fmt.Errorf("restart %d: %w", k, err)
		}
	}
	var info server.AdminStoreInfo
	if err := getJSON(c.replicas[0].rep, c.token(), "/api/v1/admin/store", &info); err != nil {
		return nil, err
	}
	for _, sh := range info.Replication.Shards {
		rt.resets += sh.Resets
		rt.bootstraps += sh.Bootstraps
	}
	return rt, nil
}

// waitReplicaEqual waits until replica i has applied node i's whole
// journal and serves the node's aggregate for every survey.
func (b *bench) waitReplicaEqual(i int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ok, err := b.c.replicaCaughtUp(i)
		if err != nil {
			return err
		}
		if ok {
			err = checkReplica(b.c, i, b.surveys)
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("replica %d did not catch up", i)
			}
			return fmt.Errorf("after %v: %w", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// check runs the output checks over everything the run stored.
func (b *bench) check() error {
	if err := b.c.waitReplicas(60 * time.Second); err != nil {
		return err
	}
	if err := checkMerged(b.c, b.in, b.acked); err != nil {
		return err
	}
	for i, n := range b.c.nodes {
		if err := checkReplica(b.c, i, b.surveys); err != nil {
			return err
		}
		if err := checkPresent(b.c, n, b.in.preload, b.in.tail, b.acked); err != nil {
			return err
		}
	}
	return checkBudget(b.c, b.in, b.acked)
}

// layerCounters samples the cumulative ingest counters of every node's
// stores and the frontend cache's counters.
func (b *bench) layerCounters() (ingest.Stats, server.FrontendCacheSurveyInfo, error) {
	var ing ingest.Stats
	for _, n := range b.c.nodes {
		for _, st := range n.stores {
			if s, ok := st.(interface{ Stats() ingest.Stats }); ok {
				x := s.Stats()
				ing.Appends += x.Appends
				ing.Commits += x.Commits
				ing.Rotations += x.Rotations
				ing.Snapshots += x.Snapshots
			}
		}
	}
	var cache server.FrontendCacheSurveyInfo
	var info server.AdminStoreInfo
	if err := getJSON(b.c.front.srv, b.c.token(), "/api/v1/admin/store", &info); err != nil {
		return ing, cache, err
	}
	if info.FrontendCache != nil {
		for _, s := range info.FrontendCache.Surveys {
			cache.Hits += s.Hits
			cache.Misses += s.Misses
			cache.Delta += s.Delta
			cache.NotModified += s.NotModified
			cache.Full += s.Full
		}
	}
	return ing, cache, nil
}

// monitor samples the goroutine count and the replicas' lag during the
// traced fixed-rate phase.
type monitor struct {
	stopCh        chan struct{}
	wg            sync.WaitGroup
	goroutinesMax int64
	lagMax        int64
}

func startMonitor(c *cluster) *monitor {
	m := &monitor{stopCh: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
			}
			m.goroutinesMax = max(m.goroutinesMax, int64(runtime.NumGoroutine()))
			for _, r := range c.replicas {
				var info server.AdminStoreInfo
				if getJSON(r.rep, c.token(), "/api/v1/admin/store", &info) != nil || info.Replication == nil {
					continue
				}
				for _, sh := range info.Replication.Shards {
					m.lagMax = max(m.lagMax, int64(sh.LagRecords))
				}
			}
		}
	}()
	return m
}

func (m *monitor) stop() (goroutinesMax, lagMax int64) {
	close(m.stopCh)
	m.wg.Wait()
	return m.goroutinesMax, m.lagMax
}
