package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
)

// routeCounter counts the requests a node receives by method and path.
type routeCounter struct {
	next http.Handler

	mu    sync.Mutex
	calls map[string]int
}

func (c *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.calls[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	c.next.ServeHTTP(w, r)
}

// partialCalls reports the batched partial calls received and any
// request on another route ending in /partial.
func (c *routeCounter) partialCalls() (batched, other int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for route, n := range c.calls {
		switch {
		case route == "POST /shardrpc/v1/partial":
			batched += n
		case strings.HasSuffix(route, "/partial"):
			other += n
		}
	}
	return batched, other
}

func (c *routeCounter) reset() {
	c.mu.Lock()
	c.calls = make(map[string]int)
	c.mu.Unlock()
}

// TestFrontendPartialFanOutPerNode: every merged read, uncached or a
// cache revalidation, sends exactly one partial call to each node —
// not one per shard.
func TestFrontendPartialFanOutPerNode(t *testing.T) {
	const totalShards, reads = 8, 5
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{{"uncached", -1}, {"revalidating", time.Nanosecond}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := newHANodes(t, 2, totalShards)
			counters := make([]*routeCounter, len(nodes))
			clients := make([]*shardrpc.Client, len(nodes))
			for i, n := range nodes {
				counters[i] = &routeCounter{next: n.live, calls: make(map[string]int)}
				n.sw.swap(counters[i])
				clients[i] = n.client
			}
			fts, _, _ := newTestFrontend(t, clients, totalShards, tc.ttl, 0)
			sv := clusterTestSurvey()
			if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
				t.Fatalf("publish = %d: %s", resp.StatusCode, body)
			}
			rng := rand.New(rand.NewSource(37))
			for i := 0; i < 60; i++ {
				submitOK(t, fts, randomResponse(sv, rng, i))
			}
			for _, c := range counters {
				c.reset()
			}
			for i := 0; i < reads; i++ {
				if got := getAggregate(t, fts, sv.ID); got.Choices[0].N != 60 || len(got.DegradedShards) != 0 {
					t.Fatalf("read %d folded %d responses, degraded %v", i, got.Choices[0].N, got.DegradedShards)
				}
			}
			for i, c := range counters {
				if batched, other := c.partialCalls(); batched != reads || other != 0 {
					t.Fatalf("node %d: %d batched partial calls and %d others for %d reads, want %d and 0",
						i, batched, other, reads, reads)
				}
			}
		})
	}
}

// TestFrontendDegradedReadsReplicaDown: under manifest routing, a shard
// whose primary and replica are both down degrades exactly as a shard
// with no replica does — the same degraded list on the uncached and the
// cached path, the warm cache still serving its last state.
func TestFrontendDegradedReadsReplicaDown(t *testing.T) {
	const totalShards, n = 4, 80
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{{"uncached", -1}, {"cached", time.Nanosecond}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := newHANodes(t, 2, totalShards)
			deadReplica := httptest.NewServer(deadHandler{})
			t.Cleanup(deadReplica.Close)
			m, err := placement.RoundRobin(totalShards, []string{nodes[0].url, nodes[1].url})
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Shards {
				m.Shards[i].Replicas = []string{deadReplica.URL}
			}
			sv := clusterTestSurvey()
			for _, nd := range nodes {
				nd.node.ApplyManifest(m, nd.url)
				// Published on the nodes directly: the frontend's
				// broadcast would also reach the dead replica.
				if err := nd.client.Publish(sv, false); err != nil {
					t.Fatal(err)
				}
			}
			remote, err := shardrpc.NewRemoteFromManifest(m, testToken, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { remote.Close() })
			frontend, err := New(Config{
				Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend",
				FrontendCacheTTL: tc.ttl,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { frontend.Close() })
			fts := httptest.NewServer(frontend)
			t.Cleanup(fts.Close)

			rng := rand.New(rand.NewSource(41))
			for i := 0; i < n; i++ {
				submitOK(t, fts, randomResponse(sv, rng, i))
			}
			// Round-robin: node 1 owns shards 1 and 3.
			liveN := remote.CountShard(0, sv.ID) + remote.CountShard(2, sv.ID)
			if warm := getAggregate(t, fts, sv.ID); len(warm.DegradedShards) != 0 {
				t.Fatalf("healthy read degraded: %v", warm.DegradedShards)
			}

			nodes[1].kill()
			for i := 0; i < 2; i++ { // primary dying under the read, then known down
				got := getAggregate(t, fts, sv.ID)
				sort.Ints(got.DegradedShards)
				if fmt.Sprint(got.DegradedShards) != "[1 3]" {
					t.Fatalf("read %d degraded shards = %v, want [1 3]", i, got.DegradedShards)
				}
				want := liveN
				if tc.ttl > 0 {
					want = n // warm parts stand in for the dark shards
				}
				if got.Choices[0].N != want {
					t.Fatalf("read %d folded %d responses, want %d", i, got.Choices[0].N, want)
				}
			}
			if remote.StaleReads() != 0 {
				t.Fatalf("stale reads = %d with every replica down", remote.StaleReads())
			}
		})
	}
}
