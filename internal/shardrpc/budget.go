package shardrpc

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"loki/internal/budget"
)

// The budget surface rides the shardrpc transport: token-guarded JSON
// endpoints a frontend debits worker accounts through before forwarding
// submits. Routes (token-guarded like everything else):
//
//	POST /shardrpc/v1/budget/charge  body BudgetChargeRequest  → BudgetChargeResult
//	POST /shardrpc/v1/budget/refund  body BudgetRefundRequest  → {}
//	GET  /shardrpc/v1/budget/{shard}/peek?worker=W             → budget.Account
//	GET  /shardrpc/v1/budget/stats                             → BudgetStatsResult
//
// A rejected charge is NOT a transport error: it travels inside the
// outcome with HTTP 200. Transport errors mean the debit was not
// decided, and the submit path fails closed (enforce) or open (log)
// accordingly.

// BudgetBackend is the optional budget surface a node exposes next to
// Backend. NewHandler registers the budget routes only when its backend
// implements it.
type BudgetBackend interface {
	// BudgetCharge debits a batch of charges against one hosted budget
	// shard, transactionally. Shards the node does not host must error
	// with ErrNotOwned.
	BudgetCharge(shard int, charges []budget.Charge) ([]budget.Outcome, error)
	// BudgetRefund credits one charge back on a hosted shard.
	BudgetRefund(shard int, c budget.Charge) error
	// BudgetPeek reads one worker's account off a hosted shard.
	BudgetPeek(shard int, workerID string) (budget.Account, error)
	// BudgetStats reports the node's hosted budget shards.
	BudgetStats() ([]budget.ShardStats, error)
}

// BudgetChargeRequest is a routed charge batch: every charge's worker
// hashes to Shard under budget.Route.
type BudgetChargeRequest struct {
	Shard   int             `json:"shard"`
	Charges []budget.Charge `json:"charges"`
}

// BudgetChargeResult carries one outcome per request charge, in order.
type BudgetChargeResult struct {
	Outcomes []budget.Outcome `json:"outcomes"`
}

// BudgetRefundRequest credits one charge back.
type BudgetRefundRequest struct {
	Shard  int           `json:"shard"`
	Charge budget.Charge `json:"charge"`
}

// BudgetStatsResult lists one node's hosted budget shards.
type BudgetStatsResult struct {
	Shards []budget.ShardStats `json:"shards"`
}

func (h *Handler) registerBudget(bb BudgetBackend) {
	h.mux.HandleFunc("POST /shardrpc/v1/budget/charge", h.guard(func(w http.ResponseWriter, r *http.Request) {
		var req BudgetChargeRequest
		if !readJSON(w, r, &req) {
			return
		}
		if len(req.Charges) == 0 {
			writeErr(w, http.StatusBadRequest, "charge batch is empty")
			return
		}
		outs, err := bb.BudgetCharge(req.Shard, req.Charges)
		if err != nil {
			writeBackendErr(w, err)
			return
		}
		writeOK(w, BudgetChargeResult{Outcomes: outs})
	}))
	h.mux.HandleFunc("POST /shardrpc/v1/budget/refund", h.guard(func(w http.ResponseWriter, r *http.Request) {
		var req BudgetRefundRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := bb.BudgetRefund(req.Shard, req.Charge); err != nil {
			writeBackendErr(w, err)
			return
		}
		writeOK(w, struct{}{})
	}))
	h.mux.HandleFunc("GET /shardrpc/v1/budget/{shard}/peek", h.guard(func(w http.ResponseWriter, r *http.Request) {
		shard, ok := pathShard(w, r)
		if !ok {
			return
		}
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			writeErr(w, http.StatusBadRequest, "peek needs a worker")
			return
		}
		a, err := bb.BudgetPeek(shard, worker)
		if err != nil {
			writeBackendErr(w, err)
			return
		}
		writeOK(w, a)
	}))
	h.mux.HandleFunc("GET /shardrpc/v1/budget/stats", h.guard(func(w http.ResponseWriter, _ *http.Request) {
		stats, err := bb.BudgetStats()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeOK(w, BudgetStatsResult{Shards: stats})
	}))
}

// BudgetCharge debits a routed batch against one budget shard.
func (c *Client) BudgetCharge(shard int, charges []budget.Charge) ([]budget.Outcome, error) {
	var res BudgetChargeResult
	err := c.do(http.MethodPost, "/shardrpc/v1/budget/charge", nil,
		&BudgetChargeRequest{Shard: shard, Charges: charges}, &res)
	if err != nil {
		return nil, err
	}
	return res.Outcomes, nil
}

// BudgetRefund credits one charge back on its budget shard.
func (c *Client) BudgetRefund(shard int, ch budget.Charge) error {
	return c.do(http.MethodPost, "/shardrpc/v1/budget/refund", nil,
		&BudgetRefundRequest{Shard: shard, Charge: ch}, nil)
}

// BudgetPeek reads one worker's account.
func (c *Client) BudgetPeek(shard int, workerID string) (budget.Account, error) {
	var a budget.Account
	q := url.Values{"worker": {workerID}}
	err := c.do(http.MethodGet, "/shardrpc/v1/budget/"+strconv.Itoa(shard)+"/peek", q, nil, &a)
	return a, err
}

// BudgetStats fetches one node's hosted budget shard stats.
func (c *Client) BudgetStats() ([]budget.ShardStats, error) {
	var res BudgetStatsResult
	if err := c.do(http.MethodGet, "/shardrpc/v1/budget/stats", nil, nil, &res); err != nil {
		return nil, err
	}
	return res.Shards, nil
}

// RemoteCharger is the frontend's budget.Charger: it routes every
// charge to the node hosting the worker's budget shard, group-batching
// per shard exactly like the submit path (see batcher.go), so a busy
// frontend amortizes one charge RPC across every submit waiting in the
// same window and the hot path stays one extra round-trip, not N.
//
// The Config it reports is the frontend's flag-derived copy for the
// admin surface; the owning shard's own config decides accept/reject.
type RemoteCharger struct {
	cfg     budget.Config
	clients []*Client
	// batchers has one entry per budget shard, bound to its host.
	batchers []*budgetBatcher
}

// budgetHosts lays budget shards round-robin over the given nodes (a
// manifest's primaries, in Manifest.Nodes order): hosts[s] serves
// budget shard s. RemoteCharger, piggybacked charges and the nodes'
// own hosting all use this layout.
func budgetHosts(totalShards int, nodes []*Client) []*Client {
	hosts := make([]*Client, totalShards)
	for node, owned := range RoundRobinPlacement(totalShards, len(nodes)) {
		for _, s := range owned {
			hosts[s] = nodes[node]
		}
	}
	return hosts
}

// NewRemoteCharger builds a remote charger over one client per node,
// in Manifest.Nodes order, with budget shards laid out by budgetHosts.
func NewRemoteCharger(clients []*Client, totalShards int, cfg budget.Config) (*RemoteCharger, error) {
	if len(clients) == 0 {
		return nil, errors.New("shardrpc: remote charger needs at least one node client")
	}
	if totalShards <= 0 {
		return nil, fmt.Errorf("shardrpc: remote charger needs a positive shard count, got %d", totalShards)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &RemoteCharger{cfg: cfg, clients: clients, batchers: make([]*budgetBatcher, totalShards)}
	for s, host := range budgetHosts(totalShards, clients) {
		r.batchers[s] = &budgetBatcher{shard: s, client: host}
	}
	return r, nil
}

// Config implements budget.Charger.
func (r *RemoteCharger) Config() budget.Config { return r.cfg }

// Shards implements budget.Charger.
func (r *RemoteCharger) Shards() int { return len(r.batchers) }

// batcherFor returns the batcher of workerID's budget shard.
func (r *RemoteCharger) batcherFor(workerID string) *budgetBatcher {
	return r.batchers[budget.Route(workerID, len(r.batchers))]
}

// Charge implements budget.Charger through the shard's group batcher.
func (r *RemoteCharger) Charge(c budget.Charge) (budget.Outcome, error) {
	return r.batcherFor(c.WorkerID).charge(c)
}

// Refund implements budget.Charger. Refunds are rare (they compensate
// failed appends), so they ship directly rather than batching.
func (r *RemoteCharger) Refund(c budget.Charge) error {
	b := r.batcherFor(c.WorkerID)
	return b.client.BudgetRefund(b.shard, c)
}

// Peek implements budget.Charger.
func (r *RemoteCharger) Peek(workerID string) (budget.Account, error) {
	b := r.batcherFor(workerID)
	return b.client.BudgetPeek(b.shard, workerID)
}

// Stats implements budget.Charger: every node's hosted shards,
// concatenated and sorted by global shard index.
func (r *RemoteCharger) Stats() ([]budget.ShardStats, error) {
	var out []budget.ShardStats
	for _, c := range r.clients {
		stats, err := c.BudgetStats()
		if err != nil {
			return nil, err
		}
		out = append(out, stats...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out, nil
}

// Close implements budget.Charger; the HTTP clients hold nothing worth
// tearing down.
func (r *RemoteCharger) Close() error { return nil }

var _ budget.Charger = (*RemoteCharger)(nil)

// budgetBatcher group-batches one budget shard's charges, the exact
// discipline of shardBatcher: while one charge RPC is in flight,
// concurrent charges for the same shard queue and ship as the next
// batch; a lone charge still ships immediately.
type budgetBatcher struct {
	shard  int
	client *Client

	mu      sync.Mutex
	queue   []*pendingCharge
	running bool
}

type pendingCharge struct {
	c    budget.Charge
	done chan chargeDone
}

type chargeDone struct {
	out budget.Outcome
	err error
}

// charge enqueues one debit and blocks until its batch is decided.
func (b *budgetBatcher) charge(c budget.Charge) (budget.Outcome, error) {
	p := &pendingCharge{c: c, done: make(chan chargeDone, 1)}
	b.mu.Lock()
	b.queue = append(b.queue, p)
	if !b.running {
		b.running = true
		go b.run()
	}
	b.mu.Unlock()
	d := <-p.done
	return d.out, d.err
}

func (b *budgetBatcher) run() {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		n := len(b.queue)
		if n > maxSubmitBatch {
			n = maxSubmitBatch
		}
		batch := b.queue[:n:n]
		b.queue = append([]*pendingCharge(nil), b.queue[n:]...)
		b.mu.Unlock()
		b.ship(batch)
	}
}

// ship sends one charge batch and distributes per-charge outcomes. The
// shard decides the whole batch transactionally, so an error fails
// every waiter — there is no durable-prefix subtlety like the submit
// path's: a failed batch recorded nothing the caller may act on.
func (b *budgetBatcher) ship(batch []*pendingCharge) {
	charges := make([]budget.Charge, len(batch))
	for i, p := range batch {
		charges[i] = p.c
	}
	outs, err := b.client.BudgetCharge(b.shard, charges)
	if err != nil || len(outs) != len(batch) {
		if err == nil {
			err = fmt.Errorf("shardrpc: %d outcomes for %d charges", len(outs), len(batch))
		}
		for _, p := range batch {
			p.done <- chargeDone{err: err}
		}
		return
	}
	for i, p := range batch {
		p.done <- chargeDone{out: outs[i]}
	}
}
