package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki/internal/placement"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// wireNode is one in-process node for the batched-fetch and keep-alive
// tests: a Backend behind an httptest server that counts the
// connections it accepts and the requests it receives by route, and
// can be killed — every connection torn down before a byte of response
// is written, which is what a dead process looks like to a client.
type wireNode struct {
	url    string
	client *Client
	conns  atomic.Int64
	dead   atomic.Bool

	mu    sync.Mutex
	calls map[string]int // "METHOD /path" → requests received
}

// newWireNode serves the given global shards of a total-shard cluster.
// wrap, when non-nil, decorates the backend (to inject refusals).
func newWireNode(t *testing.T, owned []int, total int, wrap func(Backend) Backend) *wireNode {
	t.Helper()
	stores := make([]store.Store, len(owned))
	for i := range stores {
		stores[i] = store.NewMem()
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	var backend Backend = &testBackend{local: local, total: total}
	if wrap != nil {
		backend = wrap(backend)
	}
	h, err := NewHandler(backend, "cluster-token")
	if err != nil {
		t.Fatal(err)
	}
	n := &wireNode{calls: make(map[string]int)}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", h)
	mux.HandleFunc("GET /api/v1/admin/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"role":"node"}`)
	})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.calls[r.Method+" "+r.URL.Path]++
		n.mu.Unlock()
		if n.dead.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		mux.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			n.conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	n.url = ts.URL
	n.client = NewClient(ts.URL, "cluster-token", nil)
	return n
}

// count reports how many requests the node received on one route.
func (n *wireNode) count(route string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls[route]
}

const partialRoute = "POST /shardrpc/v1/partial"

// manifestRemote routes totalShards round-robin over the primaries,
// every shard listing the given replicas.
func manifestRemote(t *testing.T, totalShards int, primaries []*wireNode, replicas ...*wireNode) *Remote {
	t.Helper()
	urls := make([]string, len(primaries))
	for i, n := range primaries {
		urls[i] = n.url
	}
	m, err := placement.RoundRobin(totalShards, urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		for _, rep := range replicas {
			m.Shards[i].Replicas = append(m.Shards[i].Replicas, rep.url)
		}
	}
	r, err := NewRemoteFromManifest(m, "cluster-token", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestPartialsOneCallPerNode: a fetch over every shard sends exactly one
// batched call to each node, and a revalidation at the answered cursors
// comes back not-modified for every shard, again in one call per node.
func TestPartialsOneCallPerNode(t *testing.T) {
	const total = 8
	owned := RoundRobinPlacement(total, 2)
	a, b := newWireNode(t, owned[0], total, nil), newWireNode(t, owned[1], total, nil)
	remote := manifestRemote(t, total, []*wireNode{a, b})
	if err := remote.PutSurvey(rpcSurvey("sv")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r := rpcResponse("sv", i)
		if _, err := remote.Append(&r); err != nil {
			t.Fatal(err)
		}
	}

	parts, errs := remote.PartialsSince("sv", make([]uint64, total))
	have := make([]uint64, total)
	sum := 0
	for s := range parts {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
		if parts[s].Shard != s || parts[s].NotModified || parts[s].Stale {
			t.Fatalf("shard %d partial = %+v", s, parts[s])
		}
		if want := uint64(remote.CountShard(s, "sv")); parts[s].Cursor != want {
			t.Fatalf("shard %d cursor %d, count %d", s, parts[s].Cursor, want)
		}
		have[s] = parts[s].Cursor
		sum += int(parts[s].State.N)
	}
	if sum != 40 {
		t.Fatalf("partials fold %d responses, want 40", sum)
	}
	if a.count(partialRoute) != 1 || b.count(partialRoute) != 1 {
		t.Fatalf("partial calls per node = %d, %d; want 1, 1", a.count(partialRoute), b.count(partialRoute))
	}

	parts, errs = remote.PartialsSince("sv", have)
	for s := range parts {
		if errs[s] != nil || !parts[s].NotModified {
			t.Fatalf("shard %d revalidation = %+v, %v", s, parts[s], errs[s])
		}
	}
	if a.count(partialRoute) != 2 || b.count(partialRoute) != 2 {
		t.Fatalf("partial calls per node = %d, %d; want 2, 2", a.count(partialRoute), b.count(partialRoute))
	}
}

// fencedPartials refuses one shard's partial with an epoch fence.
type fencedPartials struct {
	Backend
	shard int
}

func (f fencedPartials) PartialState(shard int, surveyID string, have uint64) (*Partial, error) {
	if shard == f.shard {
		return nil, &FencedError{Shard: shard, Current: 2}
	}
	return f.Backend.PartialState(shard, surveyID, have)
}

// TestPartialsAnsweredErrors: a shard the node refuses fails alone
// inside a successful call, with the error a single-shard call would
// carry — errors.Is works for unknown survey (404) and fence (412), the
// unowned shard keeps its 421 — and none of them reads as a transport
// failure, so the frontend fails the read instead of degrading it.
func TestPartialsAnsweredErrors(t *testing.T) {
	// The node owns shards 0 and 1 of 3 and fences shard 1; the
	// manifest wrongly names it primary of shard 2 as well.
	n := newWireNode(t, []int{0, 1}, 3, func(b Backend) Backend { return fencedPartials{Backend: b, shard: 1} })
	remote := manifestRemote(t, 3, []*wireNode{n})
	if err := remote.PutSurvey(rpcSurvey("sv")); err != nil {
		t.Fatal(err)
	}

	parts, errs := remote.PartialsSince("sv", make([]uint64, 3))
	if errs[0] != nil || parts[0] == nil {
		t.Fatalf("shard 0 = %+v, %v", parts[0], errs[0])
	}
	if parts[1] != nil || !errors.Is(errs[1], ErrFenced) {
		t.Fatalf("fenced shard = %+v, %v; want ErrFenced", parts[1], errs[1])
	}
	var re *remoteError
	if parts[2] != nil || !errors.As(errs[2], &re) || re.Status != http.StatusMisdirectedRequest {
		t.Fatalf("unowned shard = %+v, %v; want 421", parts[2], errs[2])
	}
	_, ghost := remote.PartialsSince("ghost", make([]uint64, 3))
	if !errors.Is(ghost[0], store.ErrNotFound) {
		t.Fatalf("unknown survey = %v, want ErrNotFound", ghost[0])
	}
	for _, err := range []error{errs[1], errs[2], ghost[0]} {
		if IsTransportError(err) {
			t.Fatalf("answered refusal %v reads as a transport error", err)
		}
	}
	if got := n.count(partialRoute); got != 2 {
		t.Fatalf("partial calls = %d, want 2", got)
	}
}

// TestPartialsReplicaFailover: with a primary down, its shards are
// answered by the replica in one call — first when the primary dies
// under the call (it is marked down and its shards regroup onto the
// replica), then when the detector already believes it down — marked
// Stale, with StaleReads raised by one per replica-served shard. With
// the replica down too, those shards carry a transport error and the
// rest still answer.
func TestPartialsReplicaFailover(t *testing.T) {
	const total = 4
	owned := RoundRobinPlacement(total, 2)
	a, b := newWireNode(t, owned[0], total, nil), newWireNode(t, owned[1], total, nil)
	rep := newWireNode(t, []int{0, 1, 2, 3}, total, nil)
	remote := manifestRemote(t, total, []*wireNode{a, b}, rep)
	if err := remote.PutSurvey(rpcSurvey("sv")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		r := rpcResponse("sv", i)
		s := remote.Route(r.SurveyID, r.WorkerID)
		if _, err := remote.AppendShard(s, &r); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.client.SubmitFenced(s, 0, []survey.Response{r}, nil); err != nil {
			t.Fatal(err)
		}
	}

	a.dead.Store(true) // owns shards 0 and 2
	for round, wantStale := range []uint64{2, 4} {
		parts, errs := remote.PartialsSince("sv", make([]uint64, total))
		for s := range parts {
			if errs[s] != nil {
				t.Fatalf("round %d shard %d: %v", round, s, errs[s])
			}
			if want := s%2 == 0; parts[s].Stale != want {
				t.Fatalf("round %d shard %d stale = %v, want %v", round, s, parts[s].Stale, want)
			}
			if want := uint64(countOf(t, rep.client, s)); parts[s].Cursor != want {
				t.Fatalf("round %d shard %d cursor %d, want %d", round, s, parts[s].Cursor, want)
			}
		}
		if got := remote.StaleReads(); got != wantStale {
			t.Fatalf("round %d stale reads = %d, want %d", round, got, wantStale)
		}
		if got := rep.count(partialRoute); got != round+1 {
			t.Fatalf("round %d replica partial calls = %d, want %d", round, got, round+1)
		}
	}
	if got := a.count(partialRoute); got != 1 {
		t.Fatalf("dead primary got %d partial calls, want only the one that found it dead", got)
	}

	rep.dead.Store(true)
	parts, errs := remote.PartialsSince("sv", make([]uint64, total))
	for s := range parts {
		if s%2 == 0 {
			if parts[s] != nil || !IsTransportError(errs[s]) {
				t.Fatalf("unreachable shard %d = %+v, %v; want a transport error", s, parts[s], errs[s])
			}
			continue
		}
		if errs[s] != nil || parts[s].Stale {
			t.Fatalf("live shard %d = %+v, %v", s, parts[s], errs[s])
		}
	}
}

// countOf reads one shard's response count for survey "sv".
func countOf(t *testing.T, c *Client, shard int) int {
	t.Helper()
	n, err := c.Count(shard, "sv")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestConnectionReuse: hundreds of concurrent revalidations and submits
// through a manifest-routed Remote ride the shared keep-alive pool —
// the connections each node accepts stay bounded by how many calls can
// be in flight to it at once, not by how many were made.
func TestConnectionReuse(t *testing.T) {
	const total, workers, rounds = 8, 8, 40
	owned := RoundRobinPlacement(total, 2)
	nodes := []*wireNode{newWireNode(t, owned[0], total, nil), newWireNode(t, owned[1], total, nil)}
	remote := manifestRemote(t, total, nodes)
	if err := remote.PutSurvey(rpcSurvey("sv")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			have := make([]uint64, total)
			for i := 0; i < rounds; i++ {
				r := rpcResponse("sv", w*rounds+i)
				if _, err := remote.Append(&r); err != nil {
					t.Error(err)
					return
				}
				parts, errs := remote.PartialsSince("sv", have)
				for s := range parts {
					if errs[s] != nil {
						t.Error(errs[s])
						return
					}
					have[s] = parts[s].Cursor
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Per node at most: every worker's partial call plus one submit
	// batch per shard it owns; doubled for dials that race a
	// connection coming free.
	bound := int64(2 * (workers + total/2))
	for i, n := range nodes {
		calls := n.count(partialRoute) + n.count("POST /shardrpc/v1/submit")
		if calls < workers*rounds {
			t.Fatalf("node %d served %d calls, want at least %d", i, calls, workers*rounds)
		}
		if got := n.conns.Load(); got > bound {
			t.Fatalf("node %d accepted %d connections for %d calls, want at most %d", i, got, calls, bound)
		}
	}
}

// TestProberReusesConnections: K probe rounds open one connection per
// target, not one per probe.
func TestProberReusesConnections(t *testing.T) {
	const total, rounds = 2, 5
	owned := RoundRobinPlacement(total, 2)
	a, b := newWireNode(t, owned[0], total, nil), newWireNode(t, owned[1], total, nil)
	rep := newWireNode(t, []int{0, 1}, total, nil)
	remote := manifestRemote(t, total, []*wireNode{a, b}, rep)
	targets := []*wireNode{a, b, rep}
	remote.EnableFailover(FailoverOptions{ProbeInterval: 5 * time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range targets {
		for n.count("GET /api/v1/admin/health") < rounds {
			if time.Now().After(deadline) {
				t.Fatalf("%d probe rounds did not complete", rounds)
			}
			time.Sleep(time.Millisecond)
		}
	}
	remote.Close()
	for i, n := range targets {
		if got := n.conns.Load(); got != 1 {
			t.Fatalf("target %d accepted %d connections over %d probes, want 1",
				i, got, n.count("GET /api/v1/admin/health"))
		}
	}
}
