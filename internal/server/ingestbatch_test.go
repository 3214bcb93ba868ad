package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// TestNodeIngestBatchGroupCommit: on an ingest-backed node, one
// AppendShardBatch of 1024 records over 8 surveys costs one group
// commit per WAL shard it touches (MaxBatch covers any shard's group),
// journals every record, and a replica following the node catches up
// to the same aggregates.
func TestNodeIngestBatchGroupCommit(t *testing.T) {
	ing, err := ingest.Open(t.TempDir(), ingest.Config{Shards: 8, MaxBatch: 1024})
	if err != nil {
		t.Fatal(err)
	}
	local, err := shardset.NewLocal([]store.Store{ing}, shardset.LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "node"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsrv.Close() })
	node, err := NewNode(nsrv, 1)
	if err != nil {
		t.Fatal(err)
	}

	const surveys, n = 8, 1024
	svs := make([]*survey.Survey, surveys)
	for i := range svs {
		svs[i] = clusterTestSurvey()
		svs[i].ID = fmt.Sprintf("batch-%d", i)
		if err := local.PutSurvey(svs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	rs := make([]survey.Response, n)
	for k := range rs {
		rs[k] = *randomResponse(svs[k%surveys], rng, k)
	}
	counts, err := node.AppendShardBatch(0, rs)
	if err != nil || len(counts) != n {
		t.Fatalf("AppendShardBatch = %d counts, %v", len(counts), err)
	}

	touched := 0
	for _, sh := range ing.ShardStats() {
		if sh.Appends > 0 {
			touched++
		}
	}
	if st := ing.Stats(); st.Appends != n || st.Commits > int64(touched) {
		t.Fatalf("ingest stats %+v: want %d appends in at most %d commits (WAL shards touched)", st, n, touched)
	}
	if js := local.JournalStats(); len(js) != 1 || js[0].Entries != n {
		t.Fatalf("journal stats %+v, want %d entries", js, n)
	}

	h, err := shardrpc.NewHandler(node, testToken)
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(h)
	t.Cleanup(nts.Close)
	rep, err := NewReplica(ReplicaConfig{
		Client:         shardrpc.NewClient(nts.URL, testToken, nil),
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
		PollInterval:   time.Hour, // the test drives SyncOnce directly
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rep.SyncOnce()
	rts := httptest.NewServer(rep)
	t.Cleanup(rts.Close)
	for _, sv := range svs {
		compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))
	}
}
