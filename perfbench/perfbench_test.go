package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// sameInterfaces fails the test when wrapped does not implement exactly
// the listed interfaces that inner implements: a wrapper that gained or
// lost one would send the traced run down another code path.
func sameInterfaces(t *testing.T, inner, wrapped any, ifaces ...reflect.Type) {
	t.Helper()
	for _, it := range ifaces {
		in, out := reflect.TypeOf(inner).Implements(it), reflect.TypeOf(wrapped).Implements(it)
		if in != out {
			t.Errorf("%T implements %v: %v; its wrapper %T: %v", inner, it, in, wrapped, out)
		}
	}
}

func ifaceOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	st, err := ingest.Open(t.TempDir(), ingest.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sameInterfaces(t, st, &tracedStore{Sharded: st},
		ifaceOf[store.Store](), ifaceOf[store.BatchAppender](), ifaceOf[store.Historian](),
		ifaceOf[interface{ Stats() ingest.Stats }](), ifaceOf[interface{ ShardStats() []ingest.ShardStats }]())

	local, err := shardset.NewLocal([]store.Store{store.NewMem()}, shardset.LocalOptions{GlobalIDs: []int{0}, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: "t", Role: "node", ClusterShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node, err := server.NewNode(srv, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameInterfaces(t, node, &tracedNode{Node: node},
		ifaceOf[shardrpc.Backend](), ifaceOf[shardrpc.ChargedBackend](), ifaceOf[shardrpc.AdmittedBackend](),
		ifaceOf[shardrpc.FencedBackend](), ifaceOf[shardrpc.BudgetBackend]())

	var h http.Handler = srv
	sameInterfaces(t, h, &tracedHandler{inner: h}, ifaceOf[http.Handler]())
	var rt http.RoundTripper = http.DefaultTransport
	sameInterfaces(t, rt, &tracedTransport{inner: rt}, ifaceOf[http.RoundTripper]())
}

// scheduleServer serves the noise schedule client.Prepare verifies.
func scheduleServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: "t"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func testInputs(t *testing.T, url, workload string, seed uint64) *inputs {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	wl := *cfg.Workloads[workload]
	wl.PreloadPerSurvey = min(wl.PreloadPerSurvey, 5)
	surveys, err := surveysFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(client.Config{BaseURL: url, Schedule: core.DefaultSchedule(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(context.Background(), cl, &wl, surveys, 400, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func inputJSON(t *testing.T, in *inputs) string {
	t.Helper()
	b, err := json.Marshal([][]*survey.Response{in.preload, in.tail, in.submits})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSameSeedSameInputs(t *testing.T) {
	ts := scheduleServer(t)
	for _, w := range []string{"ingest", "dashboard"} {
		a, b := inputJSON(t, testInputs(t, ts.URL, w, 7)), inputJSON(t, testInputs(t, ts.URL, w, 7))
		if a != b {
			t.Errorf("%s: seed 7 built two different input sets", w)
		}
		if c := inputJSON(t, testInputs(t, ts.URL, w, 8)); c == a {
			t.Errorf("%s: seeds 7 and 8 built the same input set", w)
		}
	}
}

// TestObfuscatedMeansNoisy checks the at-source path really ran: the
// population models answer rating and numeric questions with whole
// numbers, so a response marked obfuscated must carry a fractional
// (noisy) value on such a question, and an unprotected one must not.
func TestObfuscatedMeansNoisy(t *testing.T) {
	ts := scheduleServer(t)
	in := testInputs(t, ts.URL, "dashboard", 3)
	levels := map[string]int{}
	for _, r := range append(append(in.preload, in.tail...), in.submits...) {
		sv := in.byID[r.SurveyID]
		levels[r.PrivacyLevel]++
		if r.Obfuscated != (r.PrivacyLevel != core.None.String()) {
			t.Fatalf("%s/%s: obfuscated=%v at level %s", r.SurveyID, r.WorkerID, r.Obfuscated, r.PrivacyLevel)
		}
		numeric, fractional := 0, 0
		for i := range r.Answers {
			a := &r.Answers[i]
			q := sv.Question(a.QuestionID)
			if q == nil || (q.Kind != survey.Rating && q.Kind != survey.Numeric) {
				continue
			}
			numeric++
			if v, err := a.Value(); err == nil && v != math.Trunc(v) {
				fractional++
			}
		}
		if numeric == 0 {
			continue
		}
		if r.Obfuscated && fractional == 0 {
			t.Errorf("%s/%s is marked obfuscated but carries no noise", r.SurveyID, r.WorkerID)
		}
		if !r.Obfuscated && fractional > 0 {
			t.Errorf("%s/%s is unprotected but carries noise", r.SurveyID, r.WorkerID)
		}
	}
	for _, l := range []core.Level{core.None, core.Low, core.Medium, core.High} {
		if levels[l.String()] == 0 {
			t.Errorf("no response at privacy level %s: the take-up mix is missing a level", l)
		}
	}
}

// stallServer is a stand-in frontend whose first submit batch and first
// read stall; it records the most connections ever open at once.
type stallServer struct {
	stall     time.Duration
	mu        sync.Mutex
	open, max int
	submits   int
	reads     int
}

func (s *stallServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var first bool
	if r.Method == http.MethodPost {
		s.submits++
		first = s.submits == 1
	} else {
		s.reads++
		first = s.reads == 1
	}
	s.mu.Unlock()
	if first {
		time.Sleep(s.stall)
	}
	if r.Method != http.MethodPost {
		w.Write([]byte(`{}`))
		return
	}
	var req server.BatchSubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := server.BatchSubmitResult{Accepted: len(req.Responses)}
	for _, resp := range req.Responses {
		res.Results = append(res.Results, server.BatchSubmitItem{SurveyID: resp.SurveyID, Accepted: true, Stored: 1})
	}
	json.NewEncoder(w).Encode(&res)
}

func (s *stallServer) connState(_ net.Conn, st http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st {
	case http.StateNew:
		s.open++
		s.max = max(s.max, s.open)
	case http.StateClosed, http.StateHijacked:
		s.open--
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const conns = 2
	stall := 300 * time.Millisecond
	ss := &stallServer{stall: stall}
	ts := httptest.NewUnstartedServer(ss)
	ts.Config.ConnState = ss.connState
	ts.Start()
	defer ts.Close()

	sv := survey.Awareness()
	in := &inputs{surveys: []*survey.Survey{sv}, byID: map[string]*survey.Survey{sv.ID: sv}}
	var sched []arrival
	for i := 0; i < 100; i++ {
		a := arrival{at: time.Duration(i) * 5 * time.Millisecond}
		if i%4 == 3 {
			a.read, a.survey = true, sv.ID
		} else {
			in.submits = append(in.submits, &survey.Response{SurveyID: sv.ID, WorkerID: "w" + strings.Repeat("x", i%7)})
		}
		sched = append(sched, a)
	}
	hc := newGeneratorHTTP(conns, nil)
	cl, err := client.New(client.Config{BaseURL: ts.URL, Schedule: core.DefaultSchedule(), HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{
		hc: hc, cl: cl, baseURL: ts.URL, token: "t", readers: conns, inputs: in, maxBehind: 10 * time.Second,
		// One record per batch and one batch in flight: the stalled
		// first batch backs the pipeline up into the arrival loop.
		subCfg: client.SubmitterConfig{MaxBatch: 1, MaxWait: time.Millisecond, MaxInflight: 1, MaxAttempts: 1},
	}
	res, err := g.run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed() != 0 || res.issued != len(sched) || res.completed() != len(sched) {
		t.Fatalf("issued %d, completed %d, failed %d of %d", res.issued, res.completed(), res.failed(), len(sched))
	}
	if len(res.lateMS) != res.issued {
		t.Fatalf("lateness recorded for %d of %d arrivals", len(res.lateMS), res.issued)
	}
	late := sortedCopy(res.lateMS)
	if worst := late[len(late)-1]; worst < float64(stall/time.Millisecond)/2 {
		t.Errorf("arrival loop blocked behind a %v stall but its worst lateness is %.1fms", stall, worst)
	}
	// The records queued behind the stall are timed from their due
	// times, so several of them carry most of the stall as latency.
	behind := 0
	for _, ms := range res.submitMS {
		if ms >= float64(stall/time.Millisecond)/2 {
			behind++
		}
	}
	if behind < 3 {
		t.Errorf("only %d submits show the stall in their latency: timing does not start at the due time", behind)
	}
	if reads := sortedCopy(res.readMS); reads[len(reads)-1] < float64(stall/time.Millisecond) {
		t.Errorf("the stalled read took %.1fms, less than the %v stall", reads[len(reads)-1], stall)
	}
	if ss.max > conns {
		t.Errorf("%d connections were open at once, limit %d", ss.max, conns)
	}
}
