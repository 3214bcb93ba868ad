// Cluster benchmark ("cluster" experiment id): spin up N in-process
// nodes plus a frontend, push a fixed response load through the
// frontend's public API with concurrent workers, and compare submit
// throughput and merged-read behavior against a single-process
// standalone server over the same durable store class and the same
// data.
//
// The stores are file-backed with fsync-per-append (SyncAlways), so the
// bottleneck under test is the one that matters in production: a
// standalone server funnels every append through one fsync stream,
// while the cluster's per-shard stores fsync in parallel across shards
// and nodes. The shardrpc hop the frontend adds is charged against the
// cluster honestly — the reported scaling is net of transport overhead.
//
// Reads exercise the merge path end to end: the frontend fetches every
// shard's partial accumulator from its owning node and Merges at query
// time. The benchmark asserts the merged estimates match the standalone
// single-accumulator estimates on the same data (exact integer counts,
// float fields to within accumulation-order noise), then reports merged
// read throughput. Results are teed to BENCH_cluster.json.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Flags (registered in main.go).
var (
	clusterJSONPath  = "BENCH_cluster.json"
	clusterNodesFlag = "1,2,4"
	clusterResponses = 6000
	clusterShards    = 8
	// clusterWorkers is deliberately deep: batching (transport and
	// store level) is the mechanism under test, and it only engages
	// when submits actually queue.
	clusterWorkers = 64
	// clusterCacheTTL is the caching frontend's staleness bound under
	// test (the loki-server default).
	clusterCacheTTL = 250 * time.Millisecond
)

const clusterToken = "bench-cluster-token"

// clusterResult is one configuration's measurement.
type clusterResult struct {
	// Nodes is 0 for the single-process baseline.
	Nodes     int `json:"nodes"`
	Shards    int `json:"shards"`
	Responses int `json:"responses"`
	Workers   int `json:"workers"`
	// SubmitRPS is accepted responses per second through the public
	// submit endpoint (fsync-per-append file stores underneath);
	// SubmitLatency its per-request percentiles over the same window.
	SubmitRPS     float64        `json:"submit_rps"`
	SubmitLatency latencySummary `json:"submit_latency"`
	// SubmitSpeedup is SubmitRPS over the baseline's.
	SubmitSpeedup float64 `json:"submit_speedup,omitempty"`
	// ReadQPS is merged /aggregate queries per second through the
	// UNCACHED frontend (one full snapshot RPC fan-out per read, the
	// PR 4 path); ReadMillis is the mean per-query latency.
	ReadQPS    float64 `json:"read_qps"`
	ReadMillis float64 `json:"read_millis"`
	// CachedReadQPS/CachedReadMillis measure the same reads through a
	// caching frontend over the same nodes (cursor-vector partial
	// cache, conditional delta revalidation); CachedSpeedup is cached
	// over uncached.
	CachedReadQPS    float64 `json:"cached_read_qps,omitempty"`
	CachedReadMillis float64 `json:"cached_read_millis,omitempty"`
	CachedSpeedup    float64 `json:"cached_speedup,omitempty"`
	// Equivalent reports whether the merged estimates — uncached AND
	// cached — matched the baseline's single-accumulator estimates on
	// the same data.
	Equivalent bool `json:"equivalent"`
}

// clusterContext records the environment facts needed to read the
// numbers correctly — above all that every shard store in this
// in-process run fsyncs to the same device, which is why submit
// speedup plateaus (or sags slightly) as nodes grow: parallel fsyncs
// from N "nodes" serialize on one filesystem journal, so shard scaling
// above ~1 node measures transport overhead, not storage parallelism.
// On real deployments with per-node disks the submit trajectory is the
// interesting number; here it is a floor.
type clusterContext struct {
	GOOS   string `json:"goos"`
	NumCPU int    `json:"num_cpu"`
	// StoreRoot is where every configuration's shard stores lived.
	StoreRoot string `json:"store_root"`
	// FsyncDevice is the device id backing StoreRoot; SingleFsyncDevice
	// reports that every shard store shared it (always true for this
	// in-process benchmark).
	FsyncDevice       string `json:"fsync_device"`
	SingleFsyncDevice bool   `json:"single_fsync_device"`
	Note              string `json:"note"`
}

// clusterReport is the BENCH_cluster.json schema.
type clusterReport struct {
	Schema   int            `json:"schema"`
	Context  clusterContext `json:"context"`
	Baseline clusterResult  `json:"baseline"`
	// CacheTTLMillis is the caching frontend's staleness bound.
	CacheTTLMillis float64         `json:"cache_ttl_millis"`
	Results        []clusterResult `json:"results"`
	// Failover is the -kill-node fault-injection timeline (absent when
	// the flag is off).
	Failover *failoverResult `json:"failover,omitempty"`
}

// deviceID returns a printable device id for the filesystem holding
// path (the fsync serialization domain of this run's stores).
func deviceID(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return "unknown"
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("dev-%d", st.Dev)
}

// clusterSurvey reuses the readpath survey: every accumulator cell kind
// is exercised, so the equivalence check covers Welford bins, choice
// counts and the quality tally.
func clusterSurvey() *survey.Survey {
	sv := readpathSurvey()
	sv.ID = "bench-cluster"
	return sv
}

// clusterResponse builds the i-th deterministic response. Worker IDs
// drive shard placement, so the same i lands on the same shard in every
// configuration.
func clusterResponse(sv *survey.Survey, i int) *survey.Response {
	levels := []string{"none", "low", "medium", "high"}
	lvl := levels[i%len(levels)]
	rating := float64(1 + i%5)
	q1 := rating
	if i%68 == 0 {
		if rating >= 3 {
			q1 = rating - 2
		} else {
			q1 = rating + 2
		}
	}
	return &survey.Response{
		SurveyID:     sv.ID,
		WorkerID:     fmt.Sprintf("w%07d", i),
		PrivacyLevel: lvl,
		Obfuscated:   lvl != "none",
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", rating),
			survey.RatingAnswer("q1", q1),
			survey.ChoiceAnswer("q2", i%3),
		},
	}
}

// clusterHarness is one running configuration: a handler to drive and
// the teardown stack behind it. Cluster configurations additionally
// carry a caching frontend over the same nodes (cached is nil for the
// standalone baseline).
type clusterHarness struct {
	handler http.Handler
	cached  http.Handler
	closers []func() error
}

func (h *clusterHarness) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		_ = h.closers[i]()
	}
}

// newStandaloneHarness builds the single-process baseline: one
// fsync-per-append file store behind the classic server.
func newStandaloneHarness(dir string, sv *survey.Survey) (*clusterHarness, error) {
	st, err := store.OpenFile(filepath.Join(dir, "standalone.jsonl"))
	if err != nil {
		return nil, err
	}
	h := &clusterHarness{closers: []func() error{st.Close}}
	srv, err := server.New(server.Config{Store: st, Schedule: core.DefaultSchedule(), RequesterToken: clusterToken})
	if err != nil {
		h.close()
		return nil, err
	}
	h.closers = append(h.closers, srv.Close)
	if err := st.PutSurvey(sv); err != nil {
		h.close()
		return nil, err
	}
	h.handler = srv
	return h, nil
}

// newClusterHarness builds nodes in-process (real HTTP via httptest for
// the shardrpc hop) and a frontend over them.
func newClusterHarness(dir string, sv *survey.Survey, nodes int) (*clusterHarness, error) {
	h := &clusterHarness{}
	owned := shardrpc.RoundRobinPlacement(clusterShards, nodes)
	urls := make([]string, nodes)
	for n := 0; n < nodes; n++ {
		stores := make([]store.Store, len(owned[n]))
		for i, g := range owned[n] {
			st, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d-gshard%03d.jsonl", n, g)))
			if err != nil {
				h.close()
				return nil, err
			}
			h.closers = append(h.closers, st.Close)
			stores[i] = st
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned[n], Journal: true})
		if err != nil {
			h.close()
			return nil, err
		}
		srv, err := server.New(server.Config{
			Router: local, Schedule: core.DefaultSchedule(),
			RequesterToken: clusterToken, Role: "node",
		})
		if err != nil {
			h.close()
			return nil, err
		}
		h.closers = append(h.closers, srv.Close)
		node, err := server.NewNode(srv, clusterShards)
		if err != nil {
			h.close()
			return nil, err
		}
		rpc, err := shardrpc.NewHandler(node, clusterToken)
		if err != nil {
			h.close()
			return nil, err
		}
		ts := httptest.NewServer(rpc)
		h.closers = append(h.closers, func() error { ts.Close(); return nil })
		urls[n] = ts.URL
	}
	// Enough idle conns per node that the submit workers are not
	// throttled by connection churn.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterWorkers * 2}}
	remote, err := roundRobinRemote(urls, hc)
	if err != nil {
		h.close()
		return nil, err
	}
	// Two frontends over the same nodes: one with the partial cache
	// disabled (the PR 4 fan-out-per-read path, the honest "uncached"
	// measurement) and one caching with the production-default TTL.
	frontend, err := server.New(server.Config{
		Router: remote, Schedule: core.DefaultSchedule(),
		RequesterToken: clusterToken, Role: "frontend",
		FrontendCacheTTL: -1,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	h.closers = append(h.closers, frontend.Close)
	cached, err := server.New(server.Config{
		Router: remote, Schedule: core.DefaultSchedule(),
		RequesterToken: clusterToken, Role: "frontend",
		FrontendCacheTTL: clusterCacheTTL,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	h.closers = append(h.closers, cached.Close)
	if err := remote.PutSurvey(sv); err != nil {
		h.close()
		return nil, err
	}
	h.handler = frontend
	h.cached = cached
	return h, nil
}

// driveSubmits pushes n deterministic responses (indices base..base+n-1
// — distinct bases keep worker-id spaces disjoint across phases) through
// the handler with the configured worker count and returns accepted
// responses/sec plus per-submit latency percentiles.
func driveSubmits(h http.Handler, sv *survey.Survey, base, n int) (float64, latencySummary, error) {
	var lat latencyRecorder
	var wg sync.WaitGroup
	errCh := make(chan error, clusterWorkers)
	next := make(chan int, clusterWorkers*2)
	// failed gates the feeder: if every worker dies on a systematic
	// error, feeding an unread channel would deadlock the bench instead
	// of reporting the cause.
	failed := make(chan struct{})
	var failOnce sync.Once
	start := time.Now()
	for w := 0; w < clusterWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body, err := json.Marshal(clusterResponse(sv, i))
				if err != nil {
					errCh <- err
					failOnce.Do(func() { close(failed) })
					return
				}
				req := httptest.NewRequest(http.MethodPost, "/api/v1/surveys/"+sv.ID+"/responses", strings.NewReader(string(body)))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				reqStart := time.Now()
				h.ServeHTTP(rec, req)
				lat.observe(time.Since(reqStart))
				if rec.Code != http.StatusCreated {
					errCh <- fmt.Errorf("submit %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
					failOnce.Do(func() { close(failed) })
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- base + i:
		case <-failed:
			break feed
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, latencySummary{}, err
	default:
	}
	return float64(n) / elapsed.Seconds(), lat.summarize(), nil
}

// fetchAggregate reads the /aggregate payload once.
func fetchAggregate(h http.Handler, surveyID string) (*server.AggregateResult, error) {
	req := httptest.NewRequest(http.MethodGet, "/api/v1/surveys/"+surveyID+"/aggregate", nil)
	req.Header.Set("Authorization", "Bearer "+clusterToken)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("aggregate HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var out server.AggregateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// aggregatesEquivalent compares two /aggregate payloads: integer counts
// must match exactly, float fields to within accumulation-order noise
// (merging per-shard Welford partials reorders IEEE-754 operations, so
// bit-identity across fold orders is not a meaningful target; 1e-9
// relative is far below any statistical meaning the estimates carry).
func aggregatesEquivalent(a, b *server.AggregateResult) error {
	feq := func(x, y float64, what string) error {
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		if math.Abs(x-y) > tol {
			return fmt.Errorf("%s: %v vs %v", what, x, y)
		}
		return nil
	}
	if len(a.Questions) != len(b.Questions) || len(a.Choices) != len(b.Choices) {
		return fmt.Errorf("shape mismatch: %d/%d questions, %d/%d choices",
			len(a.Questions), len(b.Questions), len(a.Choices), len(b.Choices))
	}
	for i := range a.Questions {
		qa, qb := &a.Questions[i], &b.Questions[i]
		if qa.QuestionID != qb.QuestionID || qa.OverallN != qb.OverallN {
			return fmt.Errorf("question %s: n %d vs %d", qa.QuestionID, qa.OverallN, qb.OverallN)
		}
		if err := feq(qa.OverallMean, qb.OverallMean, qa.QuestionID+" overall mean"); err != nil {
			return err
		}
		if err := feq(qa.PooledMean, qb.PooledMean, qa.QuestionID+" pooled mean"); err != nil {
			return err
		}
		for l := range qa.Bins {
			ba, bb := &qa.Bins[l], &qb.Bins[l]
			if ba.N != bb.N {
				return fmt.Errorf("question %s bin %d: n %d vs %d", qa.QuestionID, l, ba.N, bb.N)
			}
			if err := feq(ba.Mean, bb.Mean, fmt.Sprintf("%s bin %d mean", qa.QuestionID, l)); err != nil {
				return err
			}
			if err := feq(ba.Variance, bb.Variance, fmt.Sprintf("%s bin %d variance", qa.QuestionID, l)); err != nil {
				return err
			}
		}
	}
	for i := range a.Choices {
		ca, cb := &a.Choices[i], &b.Choices[i]
		if ca.QuestionID != cb.QuestionID || ca.N != cb.N {
			return fmt.Errorf("choice %s: n %d vs %d", ca.QuestionID, ca.N, cb.N)
		}
		for c := range ca.Observed {
			if ca.Observed[c] != cb.Observed[c] {
				return fmt.Errorf("choice %s option %d: observed %d vs %d", ca.QuestionID, c, ca.Observed[c], cb.Observed[c])
			}
			if err := feq(ca.Estimated[c], cb.Estimated[c], fmt.Sprintf("%s option %d estimate", ca.QuestionID, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// measureReads runs aggregate queries for a short window and returns
// (queries/sec, mean latency).
func measureReads(h http.Handler, surveyID string) (float64, time.Duration, error) {
	qps, err := measure(300*time.Millisecond, 20, func() error {
		_, err := fetchAggregate(h, surveyID)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return qps, time.Duration(float64(time.Second) / qps), nil
}

// runClusterBench measures the baseline and every configured node
// count, asserts read equivalence, and writes the report.
func runClusterBench(nodeCounts []int) error {
	sv := clusterSurvey()
	report := clusterReport{Schema: 4, CacheTTLMillis: float64(clusterCacheTTL) / 1e6}

	// Baseline: single process, one fsync stream.
	baseDir, err := os.MkdirTemp("", "loki-bench-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	report.Context = clusterContext{
		GOOS:              runtime.GOOS,
		NumCPU:            runtime.NumCPU(),
		StoreRoot:         filepath.Dir(baseDir),
		FsyncDevice:       deviceID(baseDir),
		SingleFsyncDevice: true,
		Note: "all shard stores fsync to one device in this in-process run; " +
			"submit speedup over the baseline reflects batching and per-shard fsync overlap on a shared filesystem journal, " +
			"so it plateaus (or sags) as in-process nodes grow — that is fsync serialization, not a routing scaling bug. " +
			"Per-node devices move this number; see the README cluster section.",
	}
	base, err := newStandaloneHarness(baseDir, sv)
	if err != nil {
		return err
	}
	baseRPS, baseSubmitLat, err := driveSubmits(base.handler, sv, 0, clusterResponses)
	if err != nil {
		base.close()
		return fmt.Errorf("cluster bench: baseline submits: %w", err)
	}
	baseAgg, err := fetchAggregate(base.handler, sv.ID)
	if err != nil {
		base.close()
		return err
	}
	baseQPS, baseLat, err := measureReads(base.handler, sv.ID)
	if err != nil {
		base.close()
		return err
	}
	base.close()
	report.Baseline = clusterResult{
		Nodes: 0, Shards: 1, Responses: clusterResponses, Workers: clusterWorkers,
		SubmitRPS: baseRPS, SubmitLatency: baseSubmitLat,
		ReadQPS: baseQPS, ReadMillis: float64(baseLat) / 1e6, Equivalent: true,
	}

	for _, nodes := range nodeCounts {
		dir, err := os.MkdirTemp("", "loki-bench-cluster-*")
		if err != nil {
			return err
		}
		h, err := newClusterHarness(dir, sv, nodes)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		rps, submitLat, err := driveSubmits(h.handler, sv, 0, clusterResponses)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return fmt.Errorf("cluster bench: %d-node submits: %w", nodes, err)
		}
		agg, err := fetchAggregate(h.handler, sv.ID)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return err
		}
		eqErr := aggregatesEquivalent(agg, baseAgg)
		if eqErr != nil {
			h.close()
			os.RemoveAll(dir)
			return fmt.Errorf("cluster bench: %d-node merged read diverged from the single-accumulator path: %w", nodes, eqErr)
		}
		qps, lat, err := measureReads(h.handler, sv.ID)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return err
		}
		// Cached frontend over the same nodes and data: the merged
		// estimate must stay equivalent (cold fill = full fan-out, then
		// cache hits serve the identical finalized merge), and the
		// throughput must never fall below the uncached path — the gate
		// CI enforces.
		cachedAgg, err := fetchAggregate(h.cached, sv.ID)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return err
		}
		if eqErr := aggregatesEquivalent(cachedAgg, baseAgg); eqErr != nil {
			h.close()
			os.RemoveAll(dir)
			return fmt.Errorf("cluster bench: %d-node cached read diverged from the single-accumulator path: %w", nodes, eqErr)
		}
		cachedQPS, cachedLat, err := measureReads(h.cached, sv.ID)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return err
		}
		h.close()
		os.RemoveAll(dir)
		if cachedQPS < qps {
			return fmt.Errorf("cluster bench: %d-node cached reads (%.0f q/s) fell below the uncached fan-out path (%.0f q/s)",
				nodes, cachedQPS, qps)
		}
		report.Results = append(report.Results, clusterResult{
			Nodes: nodes, Shards: clusterShards, Responses: clusterResponses, Workers: clusterWorkers,
			SubmitRPS: rps, SubmitSpeedup: rps / baseRPS, SubmitLatency: submitLat,
			ReadQPS: qps, ReadMillis: float64(lat) / 1e6,
			CachedReadQPS: cachedQPS, CachedReadMillis: float64(cachedLat) / 1e6,
			CachedSpeedup: cachedQPS / qps,
			Equivalent:    true,
		})
	}

	fmt.Fprintln(out, "CLUSTER — frontend + N nodes vs single process, fsync-per-append stores, merged reads (uncached and cached) verified against the single-accumulator path")
	fmt.Fprintf(out, "  context: %s, %d CPUs, one fsync device (%s) for every shard store\n",
		report.Context.GOOS, report.Context.NumCPU, report.Context.FsyncDevice)
	b := report.Baseline
	fmt.Fprintf(out, "  single    submit %9.0f r/s  p50 %6.2fms p99 %7.2fms            reads %8.0f q/s  (%.3fms)\n",
		b.SubmitRPS, b.SubmitLatency.P50Millis, b.SubmitLatency.P99Millis, b.ReadQPS, b.ReadMillis)
	for _, r := range report.Results {
		fmt.Fprintf(out, "  %d nodes   submit %9.0f r/s  p50 %6.2fms p99 %7.2fms  (%5.2fx)  reads %8.0f q/s  (%.3fms)   cached %8.0f q/s  (%.3fms, %5.1fx)  merged==single: %v\n",
			r.Nodes, r.SubmitRPS, r.SubmitLatency.P50Millis, r.SubmitLatency.P99Millis, r.SubmitSpeedup,
			r.ReadQPS, r.ReadMillis,
			r.CachedReadQPS, r.CachedReadMillis, r.CachedSpeedup, r.Equivalent)
	}
	if clusterKillNode {
		fo, err := runFailoverBench()
		if err != nil {
			return err
		}
		report.Failover = fo
		fmt.Fprintf(out, "  failover  kill-node: detect %.0fms  first read %.1fms  promote %.0fms  submits resume %.0fms\n",
			fo.DetectMillis, fo.FirstReadMillis, fo.PromoteMillis, fo.SubmitRecoveryMillis)
		fmt.Fprintf(out, "            reads through failover %d ok / %d failed (stale-served %d)  submits %d refused (503) then %d accepted  merged==single: %v\n",
			fo.ReadsDuringFailover, fo.ReadFailures, fo.StaleReads, fo.SubmitsRefused, fo.SubmitsRecovered, fo.Equivalent)
	}
	fmt.Fprintln(out)

	if clusterJSONPath != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(clusterJSONPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("cluster bench: write report: %w", err)
		}
	}
	return nil
}

// roundRobinRemote builds a frontend router over nodes that own the
// shards of a round-robin placement manifest, held in memory.
func roundRobinRemote(urls []string, hc *http.Client) (*shardrpc.Remote, error) {
	m, err := placement.RoundRobin(clusterShards, urls)
	if err != nil {
		return nil, err
	}
	return shardrpc.NewRemoteFromManifest(m, clusterToken, hc)
}

// parseClusterNodes parses the -cluster-nodes flag.
func parseClusterNodes(s string) ([]int, error) {
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("cluster bench: bad node count %q", part)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}
