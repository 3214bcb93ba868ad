package main

import (
	"loki/internal/ingest"
	"loki/internal/server"
)

// layerMetrics turns the traced run's snapshots into the per-layer
// metrics: the load-path layers from the fixed-rate phase, the recovery
// layers from the restart phase.
func (b *bench) layerMetrics(load, restart traceSnapshot, fixed *phaseResult, rt0, rt1 runtimeSample,
	ing0, ing1 ingest.Stats, cache0, cache1 server.FrontendCacheSurveyInfo, rs *restartTimes) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	spans := func(snap traceSnapshot, name string, fields ...string) {
		s := snap.spans[name]
		for _, f := range fields {
			switch f {
			case "count":
				put(name+".count", float64(len(s.ms)), "count")
			case "p50_ms":
				put(name+".p50_ms", orZero(percentile(s.ms, 0.5)), "ms")
			case "p99_ms":
				put(name+".p99_ms", orZero(percentile(s.ms, 0.99)), "ms")
			case "busy_s":
				put(name+".busy_s", s.busy.Seconds(), "s")
			case "records_per_call":
				put(name+".records_per_call", ratio(float64(s.items), float64(len(s.ms))), "count")
			}
		}
	}

	put("client.records_per_batch", ratio(float64(b.gen.records), float64(b.gen.batches)), "count")
	spans(load, "client.post", "p50_ms", "p99_ms")
	spans(load, "server.submit_batch", "count", "p50_ms", "p99_ms", "busy_s")
	spans(load, "server.aggregate", "count", "p50_ms", "p99_ms")
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	put("server.frontcache.hit_frac", ratio(hits, hits+misses), "ratio")
	put("server.frontcache.delta", float64(cache1.Delta-cache0.Delta), "count")
	put("server.frontcache.not_modified", float64(cache1.NotModified-cache0.NotModified), "count")
	put("server.frontcache.full", float64(cache1.Full-cache0.Full), "count")

	// The shardrpc submit's records come from the node side of the same
	// calls: the frontend batcher merges many submits into one RPC.
	spans(load, "shardrpc.submit", "count", "p50_ms", "p99_ms")
	appended := float64(load.spans["node.append"].items)
	put("shardrpc.submit.records_per_call", ratio(appended, float64(len(load.spans["shardrpc.submit"].ms))), "count")
	put("shardrpc.submit.bytes_per_record", ratio(float64(load.count["shardrpc.submit.bytes_out"]), appended), "B")
	spans(load, "shardrpc.handler.submit", "p50_ms")
	spans(load, "shardrpc.partial", "count", "p50_ms", "p99_ms")
	put("shardrpc.partial.bytes_in", float64(load.count["shardrpc.partial.bytes_in"]), "B")
	spans(load, "shardrpc.budget", "count", "p50_ms")
	fused, remote := float64(load.count["budget.charges.fused"]), float64(load.count["budget.charges.remote"])
	put("budget.charges", fused+remote, "count")
	put("budget.piggyback_frac", ratio(fused, fused+remote), "ratio")
	spans(load, "node.append", "count", "records_per_call", "p50_ms", "p99_ms")
	spans(load, "node.partial_state", "count", "p50_ms")
	spans(load, "store.append", "count", "records_per_call", "p50_ms", "p99_ms")
	appends, commits := float64(ing1.Appends-ing0.Appends), float64(ing1.Commits-ing0.Commits)
	put("ingest.records_per_commit", ratio(appends, commits), "count")
	put("ingest.commits_per_1k", 1000*ratio(commits, appends), "count")
	put("ingest.rotations", float64(ing1.Rotations-ing0.Rotations), "count")
	put("ingest.snapshots", float64(ing1.Snapshots-ing0.Snapshots), "count")

	put("store.open_s", median(rs.storeOpen), "s")
	spans(restart, "store.scan", "count", "busy_s")
	put("store.scan.records", float64(restart.spans["store.scan"].items), "count")
	put("checkpoint.open_s", median(rs.ckptOpen), "s")
	put("restart.node_open_s", median(rs.nodeOpen), "s")
	put("restart.first_read_s", median(rs.firstRead), "s")
	spans(restart, "shardrpc.tail", "count")
	put("shardrpc.tail.bytes_in", float64(restart.count["shardrpc.tail.bytes_in"]), "B")
	spans(restart, "shardrpc.scan", "count")
	put("shardrpc.scan.records", float64(restart.count["shardrpc.scan.records"]), "count")
	put("replica.resets", float64(rs.resets), "count")
	put("replica.bootstraps", float64(rs.bootstraps), "count")

	ops := float64(max(1, fixed.completed()))
	put("runtime.allocs_per_op", float64(rt1.allocs-rt0.allocs)/ops, "count")
	put("runtime.alloc_bytes_per_op", float64(rt1.allocBytes-rt0.allocBytes)/ops, "B")
	put("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	return m
}

// orZero reports a percentile of an empty sample as 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
