package shardrpc

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/budget"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Remote is the cluster-side shardset.ShardRouter: every shard-addressed
// call is forwarded to the shard's primary as the placement manifest
// names it, survey metadata broadcasts to every node. It is what a
// frontend hands the server instead of a local store.
//
// Survey definitions are read-heavy (every submit resolves one), so
// Remote keeps a short-TTL read-through cache; publishes and
// republishes invalidate it. The TTL bounds frontend/node skew for
// definitions changed behind the frontend's back (an operator
// publishing directly to a node), which nodes tolerate anyway — they
// re-validate every append.
type Remote struct {
	// batchers group-batch the submit path per shard (see batcher.go);
	// there is one per global shard, fixed at construction.
	batchers []*shardBatcher
	// primaries are the construction manifest's nodes in
	// Manifest.Nodes order: the hosts RemoteCharger and the nodes lay
	// budget shards over. budgetHosts, when non-nil, maps each budget
	// shard to its host (EnablePiggybackCharges): the colocation test
	// for riding a charge on the submit RPC instead of a separate
	// charge RPC.
	primaries   []*Client
	budgetHosts []*Client

	metaMu    sync.Mutex
	metaTTL   time.Duration
	metaAt    time.Time
	metaList  []*survey.Survey
	metaIndex map[string]*survey.Survey

	// token and httpc dial nodes a later manifest names for the first
	// time.
	token string
	httpc *http.Client

	// routeMu guards the routing state manifest application hot-swaps:
	// routes is the one routing table (shard → primary, replicas and
	// write epoch, see failover.go), clients every node any applied
	// manifest named, in first-appearance order.
	routeMu         sync.RWMutex
	routes          []shardRoute
	manifestVersion int64
	clients         []*Client
	clientsByURL    map[string]*Client

	healthMu    sync.Mutex
	healthByURL map[string]*nodeHealth

	staleReads   atomic.Uint64
	fencedWrites atomic.Uint64
	onFenced     atomic.Value // func()

	probeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// RoundRobinPlacement spreads a global shard space across n nodes:
// shard i lives on node i mod n. It is the budget-shard layout over a
// manifest's primaries (Manifest.Nodes order) that RemoteCharger,
// piggybacked charges and the nodes share, and the data layout
// placement.RoundRobin writes into a first manifest.
func RoundRobinPlacement(totalShards, nodes int) [][]int {
	owned := make([][]int, nodes)
	for s := 0; s < totalShards; s++ {
		owned[s%nodes] = append(owned[s%nodes], s)
	}
	return owned
}

// Shards implements shardset.ShardRouter.
func (r *Remote) Shards() int { return len(r.batchers) }

// GlobalID implements shardset.ShardRouter: a frontend's shard space
// is the global one.
func (r *Remote) GlobalID(shard int) int { return shard }

// Route implements shardset.ShardRouter with the canonical hash.
func (r *Remote) Route(surveyID, workerID string) int {
	return shardset.Route(surveyID, workerID, r.Shards())
}

// checkShard bounds a caller-supplied shard index.
func (r *Remote) checkShard(shard int) error {
	if shard < 0 || shard >= r.Shards() {
		return fmt.Errorf("shardrpc: shard %d outside [0, %d)", shard, r.Shards())
	}
	return nil
}

// readTargets orders one shard's read candidates: the primary first
// unless the detector believes it down, then the replicas. stale[i]
// marks candidates whose answers must carry the stale-read label
// (anything that is not the shard's primary).
func (r *Remote) readTargets(shard int) (clients []*Client, stale []bool, err error) {
	if err := r.checkShard(shard); err != nil {
		return nil, nil, err
	}
	rt := r.routeFor(shard)
	if !r.nodeDown(rt.primary.BaseURL()) {
		clients = append(clients, rt.primary)
		stale = append(stale, false)
	}
	for _, rep := range rt.replicas {
		clients = append(clients, rep)
		stale = append(stale, true)
	}
	if len(clients) == 0 {
		// Primary down and no replicas placed: reads have nowhere to go.
		clients = append(clients, rt.primary)
		stale = append(stale, false)
	}
	return clients, stale, nil
}

// invalidateMeta drops the survey cache (after any publish).
func (r *Remote) invalidateMeta() {
	r.metaMu.Lock()
	r.metaAt = time.Time{}
	r.metaList = nil
	r.metaIndex = nil
	r.metaMu.Unlock()
}

// refreshMetaLocked refetches the survey list when the cache is stale.
// Definitions are replicated to every node, so any reachable one can
// answer: believed-up nodes are tried first, every node as a last
// resort, so a dead first peer does not take survey resolution (and
// with it the whole submit path) down. Caller holds metaMu.
func (r *Remote) refreshMetaLocked() error {
	if r.metaIndex != nil && time.Since(r.metaAt) < r.metaTTL {
		return nil
	}
	clients := r.allClients()
	ordered := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if !r.nodeDown(c.BaseURL()) {
			ordered = append(ordered, c)
		}
	}
	for _, c := range clients {
		if r.nodeDown(c.BaseURL()) {
			ordered = append(ordered, c)
		}
	}
	var lastErr error
	for _, c := range ordered {
		svs, err := c.Surveys()
		r.noteResult(c, err)
		if err != nil {
			lastErr = err
			if IsTransportError(err) {
				continue
			}
			return err
		}
		idx := make(map[string]*survey.Survey, len(svs))
		for _, sv := range svs {
			idx[sv.ID] = sv
		}
		r.metaList, r.metaIndex, r.metaAt = svs, idx, time.Now()
		return nil
	}
	return lastErr
}

// PutSurvey implements shardset.ShardRouter: broadcast to every node.
// A node that already holds the definition (a retried broadcast after
// a partial failure) is skipped but the broadcast continues, so a
// partial broadcast always converges; ErrExists surfaces only after
// every node has the definition, preserving the duplicate-publish
// contract.
func (r *Remote) PutSurvey(sv *survey.Survey) error {
	defer r.invalidateMeta()
	var exists error
	for _, c := range r.allClients() {
		if err := c.Publish(sv, false); err != nil {
			if errors.Is(err, store.ErrExists) {
				exists = err
				continue
			}
			return err
		}
	}
	return exists
}

// ReplaceSurvey implements shardset.ShardRouter: broadcast to every node.
func (r *Remote) ReplaceSurvey(sv *survey.Survey) error {
	defer r.invalidateMeta()
	for _, c := range r.allClients() {
		if err := c.Publish(sv, true); err != nil {
			return err
		}
	}
	return nil
}

// Survey implements shardset.ShardRouter through the metadata cache.
func (r *Remote) Survey(id string) (*survey.Survey, error) {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if err := r.refreshMetaLocked(); err != nil {
		return nil, err
	}
	sv, ok := r.metaIndex[id]
	if !ok {
		return nil, fmt.Errorf("shardrpc: survey %q: %w", id, store.ErrNotFound)
	}
	return sv.Clone(), nil
}

// Surveys implements shardset.ShardRouter through the metadata cache.
func (r *Remote) Surveys() ([]*survey.Survey, error) {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if err := r.refreshMetaLocked(); err != nil {
		return nil, err
	}
	out := make([]*survey.Survey, len(r.metaList))
	for i, sv := range r.metaList {
		out[i] = sv.Clone()
	}
	return out, nil
}

// Append implements shardset.ShardRouter.
func (r *Remote) Append(resp *survey.Response) (int, error) {
	return r.AppendShard(r.Route(resp.SurveyID, resp.WorkerID), resp)
}

// AppendShard implements shardset.ShardRouter through the shard's
// group batcher: concurrent appends to one shard coalesce into batch
// RPCs, one round-trip amortized across every waiter.
func (r *Remote) AppendShard(shard int, resp *survey.Response) (int, error) {
	if err := r.checkShard(shard); err != nil {
		return 0, err
	}
	return r.batchers[shard].append(resp)
}

// EnablePiggybackCharges tells the router the cluster's budget shard
// count so it can fuse a worker's budget debit into the submit RPC
// whenever the worker's budget shard lives on the node that is the
// response shard's primary (always, on a one-node cluster; 1/nodes of
// the time under round-robin placement otherwise). Budget shards are
// laid over the construction manifest's primaries by budgetHosts — the
// layout RemoteCharger and the nodes use — so the colocation test
// cannot drift from where charges actually land: replica clients a
// manifest adds host no budget shards.
func (r *Remote) EnablePiggybackCharges(budgetShards int) error {
	if budgetShards <= 0 {
		return fmt.Errorf("shardrpc: piggyback charges need a positive budget shard count, got %d", budgetShards)
	}
	r.budgetHosts = budgetHosts(budgetShards, r.primaries)
	return nil
}

// CanPiggybackCharge reports whether a submit routed to the given
// response shard can carry workerID's budget charge in the same RPC:
// piggybacking is enabled and the host of the worker's budget shard is
// the response shard's current primary. After a promotion the promoted
// node hosts no budget shard, so its charges go through RemoteCharger.
func (r *Remote) CanPiggybackCharge(shard int, workerID string) bool {
	if r.budgetHosts == nil || r.checkShard(shard) != nil {
		return false
	}
	return r.budgetHosts[budget.Route(workerID, len(r.budgetHosts))] == r.routeFor(shard).primary
}

// AppendCharged submits one response with its budget charge fused into
// the same group-batched RPC — the owning node decides the debit and
// appends in one handler call, so the enforce-mode hot path costs the
// same single round-trip as an uncharged submit. Callers must check
// CanPiggybackCharge first. Error vocabulary: budget.ErrExhausted (the
// charge was refused; nothing stored), budget.ErrUndecided (enforce
// charge undecidable; nothing stored), anything else an append failure
// whose charge the node already refunded.
func (r *Remote) AppendCharged(shard int, resp *survey.Response, ch budget.Charge) (int, budget.Outcome, error) {
	if err := r.checkShard(shard); err != nil {
		return 0, budget.Outcome{}, err
	}
	d := r.batchers[shard].appendCharged(resp, ch)
	return d.stored, d.out, d.err
}

// ScanShard implements shardset.ShardRouter by paging through the
// shard primary's scan endpoint. A down primary fails over to the shard's replicas; the target is fixed at scan start
// (switching providers mid-scan could re-deliver records to a
// non-idempotent callback, so a primary dying mid-scan fails the scan
// and the caller retries onto the replica).
func (r *Remote) ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, resp *survey.Response) error) error {
	clients, _, err := r.readTargets(shard)
	if err != nil {
		return err
	}
	var lastErr error
	for _, c := range clients {
		cursor := fromSeq
		delivered := false
		for {
			batch, err := c.Scan(shard, surveyID, cursor, maxScanPage)
			r.noteResult(c, err)
			if err != nil {
				// Fail over only before anything was delivered: a fresh
				// start on the replica re-delivers nothing.
				if IsTransportError(err) && !delivered {
					lastErr = err
					break
				}
				return err
			}
			for i := range batch.Records {
				rec := &batch.Records[i]
				if err := fn(rec.Seq, &rec.Response); err != nil {
					return err
				}
				delivered = true
			}
			if !batch.More {
				return nil
			}
			cursor = batch.NextSeq
		}
	}
	return lastErr
}

// CountShard implements shardset.ShardRouter. The interface cannot
// carry an error; an unreachable shard (primary and replicas) reads as
// zero, matching how a local router reports an unknown survey.
func (r *Remote) CountShard(shard int, surveyID string) int {
	clients, _, err := r.readTargets(shard)
	if err != nil {
		return 0
	}
	for _, c := range clients {
		n, err := c.Count(shard, surveyID)
		r.noteResult(c, err)
		if err == nil {
			return n
		}
		if !IsTransportError(err) {
			return 0
		}
	}
	return 0
}

// PartialsSince is the conditional fetch behind the frontend's merged
// reads and partial cache: have[s] is the cursor the caller holds for
// shard s (0 = none), and each shard's answer is not-modified, a delta
// past it, or a full snapshot. Shards are grouped by their first read
// target and each target gets one batched call, all in parallel. A
// down primary's shards go to its replicas; one
// that dies during the call is marked down and its shards continue
// over their remaining targets, grouped again. A replica-served answer
// carries the Stale mark and bumps the stale-read counter — degraded
// reads are labeled, never guessed. The returned slices align with
// have; a shard no target reached carries the last transport error.
func (r *Remote) PartialsSince(surveyID string, have []uint64) ([]*Partial, []error) {
	parts := make([]*Partial, len(have))
	errs := make([]error, len(have))
	targets := make([][]*Client, len(have))
	stale := make([][]bool, len(have))
	next := make([]int, len(have)) // index of each shard's current target
	pending := make([]int, 0, len(have))
	for s := range have {
		targets[s], stale[s], errs[s] = r.readTargets(s)
		if errs[s] == nil {
			pending = append(pending, s)
		}
	}
	for len(pending) > 0 {
		var calls []*Client
		groups := make(map[*Client][]int)
		for _, s := range pending {
			c := targets[s][next[s]]
			if _, ok := groups[c]; !ok {
				calls = append(calls, c)
			}
			groups[c] = append(groups[c], s)
		}
		got := make([][]*Partial, len(calls))
		gotErrs := make([][]error, len(calls))
		callErrs := make([]error, len(calls))
		var wg sync.WaitGroup
		for i, c := range calls {
			want := make([]PartialWant, len(groups[c]))
			for j, s := range groups[c] {
				want[j] = PartialWant{Shard: s, Have: have[s]}
			}
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				got[i], gotErrs[i], callErrs[i] = c.PartialsSince(surveyID, want)
			}(i, c)
		}
		wg.Wait()
		pending = pending[:0]
		for i, c := range calls {
			r.noteResult(c, callErrs[i])
			for j, s := range groups[c] {
				if err := callErrs[i]; err != nil {
					errs[s] = err
					if IsTransportError(err) && next[s]+1 < len(targets[s]) {
						next[s]++
						pending = append(pending, s)
					}
					continue
				}
				parts[s], errs[s] = got[i][j], gotErrs[i][j]
				if parts[s] != nil && stale[s][next[s]] {
					parts[s].Stale = true
					r.staleReads.Add(1)
				}
			}
		}
	}
	return parts, errs
}

// Close implements shardset.ShardRouter: stops the failover prober when
// one was started. The HTTP clients hold no resources worth tearing
// down.
func (r *Remote) Close() error {
	if r.probeStop != nil {
		select {
		case <-r.probeStop:
		default:
			close(r.probeStop)
		}
		<-r.probeDone
	}
	return nil
}

var _ shardset.ShardRouter = (*Remote)(nil)
