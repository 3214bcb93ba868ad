package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/server"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// aggregateOf reads a survey's aggregate through a role's public API.
func aggregateOf(h http.Handler, token, surveyID string) (*server.AggregateResult, error) {
	var agg server.AggregateResult
	if err := getJSON(h, token, "/api/v1/surveys/"+surveyID+"/aggregate", &agg); err != nil {
		return nil, err
	}
	return &agg, nil
}

// sameAggregate compares two aggregates field by field. Integer state
// must match exactly; floats to a relative 1e-9, because folding the
// same records in a different order reassociates IEEE sums.
func sameAggregate(a, b *server.AggregateResult) error {
	var va, vb any
	for _, p := range []struct {
		src *server.AggregateResult
		dst *any
	}{{a, &va}, {b, &vb}} {
		raw, err := json.Marshal(p.src)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, p.dst); err != nil {
			return err
		}
	}
	return sameJSON("", va, vb)
}

func sameJSON(path string, a, b any) error {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: shape differs", path)
		}
		for k, v := range x {
			if err := sameJSON(path+"."+k, v, y[k]); err != nil {
				return err
			}
		}
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: length differs", path)
		}
		for i := range x {
			if err := sameJSON(fmt.Sprintf("%s[%d]", path, i), x[i], y[i]); err != nil {
				return err
			}
		}
	case float64:
		y, ok := b.(float64)
		if !ok {
			return fmt.Errorf("%s: type differs", path)
		}
		if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return fmt.Errorf("%s: %v != %v", path, x, y)
		}
	default:
		if a != b {
			return fmt.Errorf("%s: %v != %v", path, a, b)
		}
	}
	return nil
}

// checkMerged verifies that the frontend's merged aggregate of every
// survey equals a single-accumulator fold over every record the run
// stored: the preload, the tail and every acked submit.
func checkMerged(c *cluster, in *inputs, acked []*survey.Response) error {
	bySurvey := map[string][]survey.Response{}
	for _, set := range [][]*survey.Response{in.preload, in.tail, acked} {
		for _, r := range set {
			bySurvey[r.SurveyID] = append(bySurvey[r.SurveyID], *r)
		}
	}
	est, err := server.BatchEstimator(core.DefaultSchedule())
	if err != nil {
		return err
	}
	for _, sv := range in.surveys {
		want, err := server.BatchAggregate(est, sv, bySurvey[sv.ID])
		if err != nil {
			return err
		}
		got, err := aggregateOf(c.front.srv, c.token(), sv.ID)
		if err != nil {
			return err
		}
		if err := sameAggregate(got, want); err != nil {
			return fmt.Errorf("merged aggregate of %s differs from the fold over acked records: %w", sv.ID, err)
		}
	}
	return nil
}

// checkReplica verifies replica i serves the same aggregate as node i
// for every survey.
func checkReplica(c *cluster, i int, surveys []*survey.Survey) error {
	for _, sv := range surveys {
		want, err := aggregateOf(c.nodes[i].srv, c.token(), sv.ID)
		if err != nil {
			return err
		}
		got, err := aggregateOf(c.replicas[i].rep, c.token(), sv.ID)
		if err != nil {
			return err
		}
		if err := sameAggregate(got, want); err != nil {
			return fmt.Errorf("replica %d aggregate of %s differs from its node: %w", i, sv.ID, err)
		}
	}
	return nil
}

// checkPresent verifies that every record expected on node n — the
// preload, tail and acked submits its shards own — is in its stores.
// Every worker answers a survey at most once, so (survey, worker)
// identifies a record.
func checkPresent(c *cluster, n *nodeProc, sets ...[]*survey.Response) error {
	owned := map[int]bool{}
	for _, g := range n.owned {
		owned[g] = true
	}
	expected := map[string]map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			if !owned[shardset.Route(r.SurveyID, r.WorkerID, c.cfg.Topology.GlobalShards)] {
				continue
			}
			if expected[r.SurveyID] == nil {
				expected[r.SurveyID] = map[string]bool{}
			}
			expected[r.SurveyID][r.WorkerID] = true
		}
	}
	for surveyID, workers := range expected {
		found := 0
		for i := range n.owned {
			err := n.local.ScanShard(i, surveyID, 0, func(_ uint64, r *survey.Response) error {
				if workers[r.WorkerID] {
					found++
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		if found != len(workers) {
			return fmt.Errorf("node %d holds %d of %d acked records of %s", n.idx, found, len(workers), surveyID)
		}
	}
	return nil
}

// checkBudget verifies each worker's recorded spend covers the cost of
// their acked submits.
func checkBudget(c *cluster, in *inputs, acked []*survey.Response) error {
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		return err
	}
	owed := map[string]float64{}
	for _, r := range acked {
		lvl, err := core.ParseLevel(r.PrivacyLevel)
		if err != nil {
			return err
		}
		rho, _, err := obf.ResponseRho(in.byID[r.SurveyID], lvl)
		if err != nil {
			return err
		}
		owed[r.WorkerID] += rho
	}
	shards := c.cfg.Topology.GlobalShards
	for worker, rho := range owed {
		n := c.nodeFor(budget.Route(worker, shards))
		acct, err := n.bset.Peek(worker)
		if err != nil {
			return err
		}
		if acct.Rho < rho*(1-1e-9) {
			return fmt.Errorf("worker %s recorded spend ρ=%g below the cost of acked submits ρ=%g", worker, acct.Rho, rho)
		}
	}
	return nil
}
