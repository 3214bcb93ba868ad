package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/budget"
	"loki/internal/ingest"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/survey"
)

// tracer collects per-layer timings and counts in memory during a
// traced run. Each layer boundary the benchmark wraps records a span's
// duration into the layer's histogram; the spans are not linked to
// their parents, because several layers (the shardrpc batcher, the
// ingest group commit) merge many callers into one call that cannot be
// attributed from outside the program. Such layers report busy time and
// call counts instead of self time.
type tracer struct {
	mu    sync.Mutex
	spans map[string]*spanStats
	count map[string]*atomic.Int64
}

type spanStats struct {
	ms    []float64
	busy  time.Duration
	items int64
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*spanStats{}, count: map[string]*atomic.Int64{}}
}

// span records one call of layer name that took d and handled items
// records.
func (t *tracer) span(name string, d time.Duration, items int) {
	t.mu.Lock()
	s := t.spans[name]
	if s == nil {
		s = &spanStats{}
		t.spans[name] = s
	}
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.busy += d
	s.items += int64(items)
	t.mu.Unlock()
}

// add bumps counter name by n.
func (t *tracer) add(name string, n int64) {
	t.mu.Lock()
	c := t.count[name]
	if c == nil {
		c = new(atomic.Int64)
		t.count[name] = c
	}
	t.mu.Unlock()
	c.Add(n)
}

// traceSnapshot is the tracer's state at the end of a phase.
type traceSnapshot struct {
	spans map[string]spanStats
	count map[string]int64
}

// take returns everything recorded since the last take and starts over.
func (t *tracer) take() traceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := traceSnapshot{spans: map[string]spanStats{}, count: map[string]int64{}}
	for name, s := range t.spans {
		cp := *s
		sort.Float64s(cp.ms)
		snap.spans[name] = cp
	}
	for name, c := range t.count {
		snap.count[name] = c.Load()
	}
	t.spans = map[string]*spanStats{}
	t.count = map[string]*atomic.Int64{}
	return snap
}

// tracedStore wraps one ingest store. Embedding keeps exactly the
// optional interfaces of *ingest.Sharded (store.Historian and the admin
// surface's stats, but not store.BatchAppender, which it lacks), so
// shardset.Local takes the same append path as in the untraced run:
// one AppendResponse per record.
type tracedStore struct {
	*ingest.Sharded
	t *tracer
}

func (s *tracedStore) AppendResponse(r *survey.Response) error {
	start := time.Now()
	err := s.Sharded.AppendResponse(r)
	s.t.span("store.append", time.Since(start), 1)
	return err
}

func (s *tracedStore) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	n := 0
	start := time.Now()
	err := s.Sharded.ScanResponses(surveyID, fromSeq, func(seq uint64, r *survey.Response) error {
		n++
		return fn(seq, r)
	})
	s.t.span("store.scan", time.Since(start), n)
	return err
}

// tracedNode wraps a node's shardrpc backend. Embedding *server.Node
// keeps shardrpc.ChargedBackend, AdmittedBackend, FencedBackend and
// BudgetBackend, so the shardrpc handler dispatches exactly as it does
// to the bare node.
type tracedNode struct {
	*server.Node
	t *tracer
}

func (n *tracedNode) AppendShardBatch(shard int, rs []survey.Response) ([]int, error) {
	start := time.Now()
	counts, err := n.Node.AppendShardBatch(shard, rs)
	n.t.span("node.append", time.Since(start), len(rs))
	return counts, err
}

func (n *tracedNode) AppendShardBatchCharged(shard int, rs []survey.Response, charges []budget.Charge) (*shardrpc.SubmitResult, error) {
	n.countFused(charges)
	start := time.Now()
	res, err := n.Node.AppendShardBatchCharged(shard, rs, charges)
	n.t.span("node.append", time.Since(start), len(rs))
	return res, err
}

func (n *tracedNode) AppendShardBatchAdmitted(shard int, rs []survey.Response, charges []budget.Charge) (*shardrpc.SubmitResult, error) {
	n.countFused(charges)
	start := time.Now()
	res, err := n.Node.AppendShardBatchAdmitted(shard, rs, charges)
	n.t.span("node.append", time.Since(start), len(rs))
	return res, err
}

// countFused counts the charges that ride inside a submit RPC.
func (n *tracedNode) countFused(charges []budget.Charge) {
	fused := 0
	for _, c := range charges {
		if c.WorkerID != "" {
			fused++
		}
	}
	n.t.add("budget.charges.fused", int64(fused))
}

func (n *tracedNode) BudgetCharge(shard int, charges []budget.Charge) ([]budget.Outcome, error) {
	n.t.add("budget.charges.remote", int64(len(charges)))
	return n.Node.BudgetCharge(shard, charges)
}

func (n *tracedNode) PartialState(shard int, surveyID string, have uint64) (*shardrpc.Partial, error) {
	start := time.Now()
	p, err := n.Node.PartialState(shard, surveyID, have)
	n.t.span("node.partial_state", time.Since(start), 1)
	return p, err
}

func (n *tracedNode) ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	records := 0
	err := n.Node.ScanShard(shard, surveyID, fromSeq, func(seq uint64, r *survey.Response) error {
		records++
		return fn(seq, r)
	})
	n.t.add("shardrpc.scan.records", int64(records))
	return err
}

// tracedTransport times HTTP calls by class and counts the bytes each
// way; the call ends when the caller closes the response body, so the
// time covers the whole exchange, not just the headers.
type tracedTransport struct {
	inner    http.RoundTripper
	t        *tracer
	classify func(*http.Request) string
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := tt.classify(req)
	if name == "" {
		return tt.inner.RoundTrip(req)
	}
	start := time.Now()
	if req.Body != nil {
		req.Body = &countingBody{ReadCloser: req.Body, onClose: func(n int64) { tt.t.add(name+".bytes_out", n) }}
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.t.span(name, time.Since(start), 0)
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(n int64) {
		tt.t.span(name, time.Since(start), 0)
		tt.t.add(name+".bytes_in", n)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n       int64
	once    sync.Once
	onClose func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.onClose(b.n) })
	return b.ReadCloser.Close()
}

// rpcClass names a shardrpc call by its route.
func rpcClass(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/submit"):
		return "shardrpc.submit"
	case strings.HasSuffix(p, "/partial"):
		return "shardrpc.partial"
	case strings.HasPrefix(p, "/shardrpc/v1/budget/"):
		return "shardrpc.budget"
	case strings.HasSuffix(p, "/tail"):
		return "shardrpc.tail"
	case strings.HasSuffix(p, "/scan"):
		return "shardrpc.scan"
	}
	return ""
}

// clientClass names the generator's calls to the frontend.
func clientClass(req *http.Request) string {
	if req.Method == http.MethodPost && req.URL.Path == "/api/v1/responses" {
		return "client.post"
	}
	return ""
}

// tracedHandler times an HTTP handler's ServeHTTP by class.
type tracedHandler struct {
	inner    http.Handler
	t        *tracer
	classify func(*http.Request) string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := h.classify(r)
	if name == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.t.span(name, time.Since(start), 0)
}

// frontendClass names the frontend handler's submit and read routes.
func frontendClass(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/api/v1/responses":
		return "server.submit_batch"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/aggregate"):
		return "server.aggregate"
	}
	return ""
}

// nodeClass names the node's shardrpc submit handler.
func nodeClass(r *http.Request) string {
	if r.Method == http.MethodPost && r.URL.Path == "/shardrpc/v1/submit" {
		return "shardrpc.handler.submit"
	}
	return ""
}
