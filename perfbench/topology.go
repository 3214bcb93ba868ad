package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// loki-server's defaults for every knob the benchmark does not set
// (recorded in config.json).
const (
	defaultJournalRetain   = 65536
	defaultFollowerAckTTL  = 10 * time.Minute
	defaultCheckpointEvery = 15 * time.Second
	defaultManifestPoll    = time.Second
	defaultProbeInterval   = 500 * time.Millisecond
	defaultReplicaPoll     = 500 * time.Millisecond
	defaultCacheTTL        = 250 * time.Millisecond
	defaultBudgetDelta     = 1e-6
)

// defaultIngest is loki-server's ingest store configuration: 8 WAL
// shards, group commit as soon as the committer is free, an fsync per
// group commit.
func defaultIngest() ingest.Config {
	return ingest.Config{Shards: 8, CommitInterval: 0, SegmentBytes: 16 << 20, IdleCompact: time.Minute, Codec: blockio.CodecBinary}
}

// swapHandler keeps a listener's URL stable while the process behind it
// is closed and reopened; in between it tears connections down, which
// is what a stopped process looks like on the wire.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// cluster is the HA deployment of loki-server's cluster roles, in one
// process: a manifest-routed frontend, nodes that each own an equal
// share of the global shards, and one replica following each node.
// Every role listens on its own loopback port, as separate processes
// would.
type cluster struct {
	cfg      *benchConfig
	dir      string
	tr       *tracer // nil in the untraced run
	logger   *log.Logger
	manifest string
	nodes    []*nodeProc
	replicas []*replicaProc
	front    *frontendProc
}

type nodeProc struct {
	idx   int
	dir   string
	owned []int
	sw    *swapHandler
	ts    *httptest.Server

	// Open state, rebuilt by every restart.
	stores  []store.Store
	local   *shardset.Local
	ckpt    *checkpoint.Log
	bset    *budget.Set
	srv     *server.Server
	node    *server.Node
	backend shardrpc.Backend
	watcher *placement.Watcher

	storeOpen, ckptOpen time.Duration
}

type replicaProc struct {
	rep     *server.Replica
	sw      *swapHandler
	ts      *httptest.Server
	watcher *placement.Watcher
}

type frontendProc struct {
	remote  *shardrpc.Remote
	srv     *server.Server
	handler http.Handler
	ts      *httptest.Server
	watcher *placement.Watcher
}

// rpcHTTPClient is the shardrpc client loki-server uses (nil: the
// package default), wrapped for timing in the traced run.
func (c *cluster) rpcHTTPClient() *http.Client {
	if c.tr == nil {
		return nil
	}
	return &http.Client{Timeout: 30 * time.Second, Transport: &tracedTransport{inner: http.DefaultTransport, t: c.tr, classify: rpcClass}}
}

func (c *cluster) token() string { return c.cfg.Topology.Token }

// startCluster brings the deployment up in loki-server's start order:
// nodes, then replicas (their meta fetch needs a live node), then the
// frontend, which publishes the surveys.
func startCluster(cfg *benchConfig, dir string, tr *tracer, logger *log.Logger, surveys []*survey.Survey) (*cluster, error) {
	c := &cluster{cfg: cfg, dir: dir, tr: tr, logger: logger}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	nodes := cfg.Topology.Nodes
	shards := cfg.Topology.GlobalShards
	owned := shardrpc.RoundRobinPlacement(shards, nodes)
	var nodeURLs, repURLs []string
	for i := 0; i < nodes; i++ {
		n := &nodeProc{idx: i, dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), owned: owned[i], sw: &swapHandler{}}
		n.ts = httptest.NewServer(n.sw)
		c.nodes = append(c.nodes, n)
		nodeURLs = append(nodeURLs, n.ts.URL)
		r := &replicaProc{sw: &swapHandler{}}
		r.ts = httptest.NewServer(r.sw)
		c.replicas = append(c.replicas, r)
		repURLs = append(repURLs, r.ts.URL)
	}
	m, err := placement.RoundRobin(shards, nodeURLs)
	if err != nil {
		return c, err
	}
	for s := range m.Shards {
		m.Shards[s].Replicas = []string{repURLs[s%nodes]}
	}
	c.manifest = filepath.Join(dir, "manifest.json")
	if err := m.Save(c.manifest); err != nil {
		return c, err
	}
	for _, n := range c.nodes {
		if err := c.openNode(n); err != nil {
			return c, err
		}
	}
	for i, r := range c.replicas {
		if err := c.openReplica(i, r); err != nil {
			return c, err
		}
	}
	if err := c.openFrontend(nodeURLs); err != nil {
		return c, err
	}
	for _, sv := range surveys {
		if err := c.front.remote.PutSurvey(sv); err != nil {
			return c, fmt.Errorf("publish %s: %w", sv.ID, err)
		}
	}
	return c, nil
}

// openNode opens one node exactly as loki-server -role node does: one
// ingest store per owned global shard, a journaling shard set, the
// checkpoint log, the durable budget shards, the server and its
// shardrpc handler, and the manifest watcher.
func (c *cluster) openNode(n *nodeProc) error {
	shards := c.cfg.Topology.GlobalShards
	start := time.Now()
	n.stores = make([]store.Store, len(n.owned))
	for i, g := range n.owned {
		st, err := ingest.Open(filepath.Join(n.dir, "store", fmt.Sprintf("gshard-%03d", g)), defaultIngest())
		if err != nil {
			return err
		}
		n.stores[i] = st
		if c.tr != nil {
			n.stores[i] = &tracedStore{Sharded: st, t: c.tr}
		}
	}
	n.storeOpen = time.Since(start)
	local, err := shardset.NewLocal(n.stores, shardset.LocalOptions{
		GlobalIDs: n.owned, Journal: true, JournalRetain: defaultJournalRetain, FollowerAckTTL: defaultFollowerAckTTL,
	})
	if err != nil {
		return err
	}
	n.local = local
	start = time.Now()
	n.ckpt, err = checkpoint.OpenWith(filepath.Join(n.dir, "checkpoints"), checkpoint.Options{Codec: blockio.CodecBinary})
	if err != nil {
		return err
	}
	n.ckptOpen = time.Since(start)
	n.bset, err = budget.NewSet(budget.SetOptions{
		Shards: shards, GlobalIDs: n.owned, Dir: filepath.Join(n.dir, "budget"), Config: c.budgetConfig(),
	})
	if err != nil {
		return err
	}
	n.srv, err = server.New(server.Config{
		Router: local, Schedule: core.DefaultSchedule(), RequesterToken: c.token(), Logger: c.logger,
		Checkpoints: n.ckpt, CheckpointInterval: defaultCheckpointEvery,
		Role: "node", ClusterShards: shards,
		Budget: n.bset, BudgetEnforce: "enforce",
	})
	if err != nil {
		return err
	}
	n.node, err = server.NewNode(n.srv, shards)
	if err != nil {
		return err
	}
	n.node.HostBudget(n.bset)
	n.backend = n.node
	if c.tr != nil {
		n.backend = &tracedNode{Node: n.node, t: c.tr}
	}
	rpc, err := shardrpc.NewHandler(n.backend, c.token())
	if err != nil {
		return err
	}
	self := n.ts.URL
	node := n.node
	n.watcher, err = placement.Watch(c.manifest, defaultManifestPoll, func(m *placement.Manifest) { node.ApplyManifest(m, self) })
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	var rpcH http.Handler = rpc
	if c.tr != nil {
		rpcH = &tracedHandler{inner: rpc, t: c.tr, classify: nodeClass}
	}
	mux.Handle("/shardrpc/", rpcH)
	mux.Handle("/", n.srv)
	n.sw.swap(mux)
	return nil
}

// closeNode shuts a node down in loki-server's order (the reverse of
// opening): manifest watcher, server (which flushes checkpoints),
// budget ledger, checkpoint log, stores.
func (c *cluster) closeNode(n *nodeProc) error {
	n.sw.swap(nil)
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if n.watcher != nil {
		n.watcher.Close()
	}
	if n.srv != nil {
		keep(n.srv.Close())
	}
	if n.bset != nil {
		keep(n.bset.Close())
	}
	if n.ckpt != nil {
		keep(n.ckpt.Close())
	}
	for i := len(n.stores) - 1; i >= 0; i-- {
		if n.stores[i] != nil {
			keep(n.stores[i].Close())
		}
	}
	n.watcher, n.srv, n.bset, n.ckpt, n.stores = nil, nil, nil, nil, nil
	return first
}

func (c *cluster) budgetConfig() budget.Config {
	return budget.Config{CapEpsilon: c.cfg.Topology.BudgetCapEpsilon, Delta: defaultBudgetDelta}
}

// openReplica starts the replica following node i, as loki-server
// -role replica -follow <node> -manifest does.
func (c *cluster) openReplica(i int, r *replicaProc) error {
	rep, err := server.NewReplica(server.ReplicaConfig{
		Client:         shardrpc.NewClient(c.nodes[i].ts.URL, c.token(), c.rpcHTTPClient()),
		Schedule:       core.DefaultSchedule(),
		RequesterToken: c.token(),
		Logger:         c.logger,
		PollInterval:   defaultReplicaPoll,
		FollowerID:     fmt.Sprintf("r%d", i),
		JournalRetain:  defaultJournalRetain,
		ManifestPath:   c.manifest,
		SelfURL:        r.ts.URL,
	})
	if err != nil {
		return err
	}
	r.rep = rep
	rpc, err := shardrpc.NewHandler(rep, c.token())
	if err != nil {
		return err
	}
	r.watcher, err = placement.Watch(c.manifest, defaultManifestPoll, rep.ApplyManifest)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", rpc)
	mux.Handle("/", rep)
	r.sw.swap(mux)
	return nil
}

// openFrontend starts the manifest-routed frontend as loki-server -role
// frontend -manifest -budget-enforce enforce does: failover probing,
// fenced re-poll, the remote charger with piggybacked charges, and the
// partial cache at its default TTL.
func (c *cluster) openFrontend(nodeURLs []string) error {
	f := &frontendProc{}
	c.front = f
	m, err := placement.Load(c.manifest)
	if err != nil {
		return err
	}
	f.remote, err = shardrpc.NewRemoteFromManifest(m, c.token(), c.rpcHTTPClient())
	if err != nil {
		return err
	}
	remote := f.remote
	f.watcher, err = placement.Watch(c.manifest, defaultManifestPoll, func(m *placement.Manifest) {
		if err := remote.ApplyManifest(m); err != nil {
			c.logger.Printf("placement manifest reload: %v", err)
		}
	})
	if err != nil {
		return err
	}
	remote.OnFenced(f.watcher.Poll)
	remote.EnableFailover(shardrpc.FailoverOptions{ProbeInterval: defaultProbeInterval})
	chargeClients := make([]*shardrpc.Client, len(nodeURLs))
	for i, u := range m.Nodes() {
		chargeClients[i] = shardrpc.NewClient(u, c.token(), c.rpcHTTPClient())
	}
	charger, err := shardrpc.NewRemoteCharger(chargeClients, c.cfg.Topology.GlobalShards, c.budgetConfig())
	if err != nil {
		return err
	}
	if err := remote.EnablePiggybackCharges(c.cfg.Topology.GlobalShards); err != nil {
		return err
	}
	f.srv, err = server.New(server.Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: c.token(), Logger: c.logger,
		Role: "frontend", FrontendCacheTTL: defaultCacheTTL,
		Budget: charger, BudgetEnforce: "enforce",
	})
	if err != nil {
		return err
	}
	f.handler = f.srv
	if c.tr != nil {
		f.handler = &tracedHandler{inner: f.srv, t: c.tr, classify: frontendClass}
	}
	f.ts = httptest.NewServer(f.handler)
	return nil
}

// close stops every role and listener: frontend first, then replicas,
// then nodes.
func (c *cluster) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f := c.front; f != nil {
		if f.ts != nil {
			f.ts.Close()
		}
		if f.watcher != nil {
			f.watcher.Close()
		}
		if f.remote != nil {
			keep(f.remote.Close())
		}
		if f.srv != nil {
			keep(f.srv.Close())
		}
	}
	for _, r := range c.replicas {
		r.ts.Close()
		if r.watcher != nil {
			r.watcher.Close()
		}
		if r.rep != nil {
			keep(r.rep.Close())
		}
	}
	for _, n := range c.nodes {
		n.ts.Close()
		keep(c.closeNode(n))
	}
	return first
}

// nodeFor returns the node owning a global shard.
func (c *cluster) nodeFor(shard int) *nodeProc {
	for _, n := range c.nodes {
		for _, g := range n.owned {
			if g == shard {
				return n
			}
		}
	}
	return nil
}

// appendDirect writes responses straight into their owning nodes
// through Node.AppendShardBatch, routed by the cluster's placement
// hash, in batches of up to 1024: one writer per global shard, as the
// frontend's per-shard batchers would.
func (c *cluster) appendDirect(rs []*survey.Response) error {
	shards := c.cfg.Topology.GlobalShards
	groups := make([][]survey.Response, shards)
	for _, r := range rs {
		s := shardset.Route(r.SurveyID, r.WorkerID, shards)
		groups[s] = append(groups[s], *r)
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := range groups {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			backend := c.nodeFor(s).backend
			for rest := groups[s]; len(rest) > 0; {
				batch := rest[:min(len(rest), 1024)]
				rest = rest[len(batch):]
				counts, err := backend.AppendShardBatch(s, batch)
				if err == nil && len(counts) != len(batch) {
					err = fmt.Errorf("%d of %d appended", len(counts), len(batch))
				}
				if err != nil {
					errs[s] = fmt.Errorf("preload shard %d: %w", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// getJSON serves an authorized GET through a handler in-process and
// decodes the JSON reply.
func getJSON(h http.Handler, token, path string, dst any) error {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	if dst == nil {
		_, _ = io.Copy(io.Discard, rec.Body)
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), dst)
}

// replicaCaughtUp reports whether replica i has applied node i's whole
// current journal, on every shard.
func (c *cluster) replicaCaughtUp(i int) (bool, error) {
	var info server.AdminStoreInfo
	if err := getJSON(c.replicas[i].rep, c.token(), "/api/v1/admin/store", &info); err != nil {
		return false, err
	}
	if info.Replication == nil {
		return false, fmt.Errorf("replica %d reports no replication state", i)
	}
	journals := c.nodes[i].local.JournalStats()
	end := make(map[int]shardset.JournalStats, len(journals))
	for _, j := range journals {
		end[j.Shard] = j
	}
	for _, sh := range info.Replication.Shards {
		j := end[sh.Shard]
		if sh.Epoch != j.Epoch || sh.AppliedOffset != j.Base+uint64(j.Entries) {
			return false, nil
		}
	}
	return true, nil
}

// waitReplicas blocks until every replica has caught up, or fails after
// limit. It starts each replica's next poll at once, so the wait
// measures replication work rather than the phase of the poll timer.
func (c *cluster) waitReplicas(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, r := range c.replicas {
		r.rep.SyncOnce()
	}
	for i := range c.replicas {
		for {
			ok, err := c.replicaCaughtUp(i)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %d did not catch up within %v", i, limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// waitFrontendHealthy blocks until the frontend's failure detector
// believes every primary is up again.
func (c *cluster) waitFrontendHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		info := c.front.remote.FailoverInfo()
		down := false
		for _, sh := range info.Shards {
			down = down || sh.PrimaryDown
		}
		if !down {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("frontend still reports a primary down after %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
