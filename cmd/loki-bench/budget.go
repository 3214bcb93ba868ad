// Budget benchmark ("budget" experiment id): measure what enforcing the
// per-worker privacy-budget ledger costs on the submit hot path. Two
// configurations over the same one-node cluster (fsync-per-append file
// stores, real HTTP for the shardrpc hop): budget off — the charger is
// never consulted — and budget enforce, where every submit debits the
// worker's zCDP account on the owning node (durable charge WAL,
// piggybacked on the submit RPC so the hot path stays one round trip)
// before the append. The cap is set
// far above the workload so every charge is admitted: the number under
// test is accounting overhead, not rejection throughput. Results are
// teed to BENCH_budget.json; the run fails if enforcement costs more
// than budgetMaxOverhead of the off-path throughput.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Flags (registered in main.go).
var (
	budgetJSONPath  = "BENCH_budget.json"
	budgetResponses = 4000
	// budgetRounds: each mode is measured this many times and the best
	// round is kept, damping fsync-jitter on shared CI filesystems.
	budgetRounds = 3
)

// budgetMaxOverhead is the acceptance ceiling: enforce-on submit
// throughput must stay within this fraction of enforce-off.
const budgetMaxOverhead = 0.25

// budgetBenchCap admits every charge in the workload: each worker
// submits one response, and no single response costs this much epsilon.
const budgetBenchCap = 1e6

// budgetResult is one mode's measurement.
type budgetResult struct {
	Mode      string  `json:"mode"`
	Responses int     `json:"responses"`
	Workers   int     `json:"workers"`
	SubmitRPS float64 `json:"submit_rps"`
	// SubmitLatency holds the best round's per-submit percentiles.
	SubmitLatency latencySummary `json:"submit_latency"`
	// Charges is the ledger-side debit count after the run (zero with
	// the charger off); every submit must have been accounted.
	Charges uint64 `json:"charges,omitempty"`
}

// budgetReport is the BENCH_budget.json schema.
type budgetReport struct {
	Schema  int          `json:"schema"`
	GOOS    string       `json:"goos"`
	NumCPU  int          `json:"num_cpu"`
	Shards  int          `json:"shards"`
	Off     budgetResult `json:"off"`
	Enforce budgetResult `json:"enforce"`
	// OverheadFrac is 1 - enforce_rps/off_rps; MaxOverheadFrac the
	// ceiling the run is gated on.
	OverheadFrac    float64 `json:"overhead_frac"`
	MaxOverheadFrac float64 `json:"max_overhead_frac"`
}

// budgetHarness is one running one-node cluster; set is nil with the
// budget off.
type budgetHarness struct {
	handler http.Handler
	set     *budget.Set
	closers []func() error
}

func (h *budgetHarness) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		_ = h.closers[i]()
	}
}

// newBudgetHarness builds one node (file stores, budget WAL under dir
// when enforcing) and a frontend over it.
func newBudgetHarness(dir string, sv *survey.Survey, enforce bool) (*budgetHarness, error) {
	h := &budgetHarness{}
	owned := shardrpc.RoundRobinPlacement(clusterShards, 1)[0]
	stores := make([]store.Store, len(owned))
	for i, g := range owned {
		st, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("gshard%03d.jsonl", g)))
		if err != nil {
			h.close()
			return nil, err
		}
		h.closers = append(h.closers, st.Close)
		stores[i] = st
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned, Journal: true})
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
	bcfg := budget.Config{CapEpsilon: budgetBenchCap, Delta: 1e-6}
	if enforce {
		set, err := budget.NewSet(budget.SetOptions{
			Shards: clusterShards, GlobalIDs: owned,
			Dir: filepath.Join(dir, "budget"), Config: bcfg,
		})
		if err != nil {
			h.close()
			return nil, err
		}
		h.closers = append(h.closers, set.Close)
		h.set = set
		node.HostBudget(set)
	}
	rpc, err := shardrpc.NewHandler(node, clusterToken)
	if err != nil {
		h.close()
		return nil, err
	}
	ts := httptest.NewServer(rpc)
	h.closers = append(h.closers, func() error { ts.Close(); return nil })
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterWorkers * 2}}
	remote, err := roundRobinRemote([]string{ts.URL}, hc)
	if err != nil {
		h.close()
		return nil, err
	}
	fcfg := server.Config{
		Router: remote, Schedule: core.DefaultSchedule(),
		RequesterToken: clusterToken, Role: "frontend",
		FrontendCacheTTL: -1,
	}
	if enforce {
		client := shardrpc.NewClient(ts.URL, clusterToken, hc)
		charger, err := shardrpc.NewRemoteCharger([]*shardrpc.Client{client}, clusterShards, bcfg)
		if err != nil {
			h.close()
			return nil, err
		}
		if err := remote.EnablePiggybackCharges(clusterShards); err != nil {
			h.close()
			return nil, err
		}
		fcfg.Budget = charger
		fcfg.BudgetEnforce = "enforce"
	}
	frontend, err := server.New(fcfg)
	if err != nil {
		h.close()
		return nil, err
	}
	h.closers = append(h.closers, frontend.Close)
	if err := remote.PutSurvey(sv); err != nil {
		h.close()
		return nil, err
	}
	h.handler = frontend
	return h, nil
}

// measureBudgetMode runs budgetRounds fresh harnesses in the given mode
// and keeps the best throughput, returning it with the final round's
// ledger charge count.
func measureBudgetMode(sv *survey.Survey, enforce bool) (float64, latencySummary, uint64, error) {
	var best float64
	var bestLat latencySummary
	var charges uint64
	for round := 0; round < budgetRounds; round++ {
		dir, err := os.MkdirTemp("", "loki-bench-budget-*")
		if err != nil {
			return 0, latencySummary{}, 0, err
		}
		h, err := newBudgetHarness(dir, sv, enforce)
		if err != nil {
			os.RemoveAll(dir)
			return 0, latencySummary{}, 0, err
		}
		rps, lat, err := driveSubmits(h.handler, sv, 0, budgetResponses)
		if err != nil {
			h.close()
			os.RemoveAll(dir)
			return 0, latencySummary{}, 0, fmt.Errorf("budget bench (enforce=%v): %w", enforce, err)
		}
		charges = 0
		if h.set != nil {
			stats, err := h.set.Stats()
			if err != nil {
				h.close()
				os.RemoveAll(dir)
				return 0, latencySummary{}, 0, err
			}
			for _, s := range stats {
				charges += s.Charges
			}
			if charges != uint64(budgetResponses) {
				h.close()
				os.RemoveAll(dir)
				return 0, latencySummary{}, 0, fmt.Errorf("budget bench: ledger holds %d charges for %d submits", charges, budgetResponses)
			}
		}
		h.close()
		os.RemoveAll(dir)
		if rps > best {
			best = rps
			bestLat = lat
		}
	}
	return best, bestLat, charges, nil
}

// runBudgetBench measures submit throughput with the budget off and
// enforcing, gates on the overhead ceiling, and writes the report.
func runBudgetBench() error {
	sv := clusterSurvey()
	offRPS, offLat, _, err := measureBudgetMode(sv, false)
	if err != nil {
		return err
	}
	onRPS, onLat, charges, err := measureBudgetMode(sv, true)
	if err != nil {
		return err
	}
	report := budgetReport{
		Schema: 2, GOOS: runtime.GOOS, NumCPU: runtime.NumCPU(), Shards: clusterShards,
		Off: budgetResult{
			Mode: "off", Responses: budgetResponses, Workers: clusterWorkers,
			SubmitRPS: offRPS, SubmitLatency: offLat,
		},
		Enforce: budgetResult{
			Mode: "enforce", Responses: budgetResponses, Workers: clusterWorkers,
			SubmitRPS: onRPS, SubmitLatency: onLat, Charges: charges,
		},
		OverheadFrac:    1 - onRPS/offRPS,
		MaxOverheadFrac: budgetMaxOverhead,
	}

	fmt.Fprintln(out, "BUDGET — submit throughput with the privacy-budget ledger off vs enforcing (one node, fsync-per-append stores, durable charge WAL)")
	fmt.Fprintf(out, "  off      submit %9.0f r/s  p50 %6.2fms p99 %7.2fms\n", offRPS, offLat.P50Millis, offLat.P99Millis)
	fmt.Fprintf(out, "  enforce  submit %9.0f r/s  p50 %6.2fms p99 %7.2fms  (%d charges accounted, %.1f%% overhead, ceiling %.0f%%)\n",
		onRPS, onLat.P50Millis, onLat.P99Millis, charges, report.OverheadFrac*100, budgetMaxOverhead*100)
	fmt.Fprintln(out)

	if budgetJSONPath != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(budgetJSONPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("budget bench: write report: %w", err)
		}
	}
	if report.OverheadFrac > budgetMaxOverhead {
		return fmt.Errorf("budget bench: enforcement costs %.1f%% of submit throughput (ceiling %.0f%%): %0.f r/s off vs %0.f r/s enforcing",
			report.OverheadFrac*100, budgetMaxOverhead*100, offRPS, onRPS)
	}
	return nil
}
