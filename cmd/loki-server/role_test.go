package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loki/internal/blockio"
	"loki/internal/ingest"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/survey"
)

const roleToken = "role-token"

// roleFlags is the cluster wiring of one role with main's flag defaults
// for everything the role tests do not set.
func roleFlags(role, manifest, advertise string) clusterFlags {
	return clusterFlags{
		role: role, clusterToken: roleToken, manifest: manifest, advertise: advertise,
		pollInterval: 500 * time.Millisecond, cacheTTL: 250 * time.Millisecond,
		journalRetain: 65536, followerAckTTL: 10 * time.Minute,
		manifestPoll: time.Second, probeInterval: 500 * time.Millisecond,
		budgetCap: 1e6, budgetDelta: 1e-6, budgetEnforce: "enforce",
	}
}

func setupTestRole(cf clusterFlags) (*role, error) {
	return setupRole("mem", roleToken, false, ingest.Config{Shards: 1}, blockio.CodecBinary, "", time.Second, cf,
		log.New(io.Discard, "", 0))
}

// serveRole wires cf onto a listener opened before the role is set up,
// so a node's URL can be in the manifest it reads.
func serveRole(t *testing.T, ts *httptest.Server, cf clusterFlags) {
	t.Helper()
	rl, err := setupTestRole(cf)
	if err != nil {
		t.Fatalf("%s: %v", cf.role, err)
	}
	ts.Config.Handler = rl.handler
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		rl.close(log.New(io.Discard, "", 0))
	})
}

func roleRequest(t *testing.T, method, url string, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+roleToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s = %d: %s", method, url, resp.StatusCode, out)
	}
	return out
}

// TestClusterRolesFromManifest: two nodes and a frontend wired from one
// 2-node manifest. Each node owns exactly the shards it is primary of,
// and a survey published, answered (with enforced budget charges) and
// read through the frontend merges every node's shards.
func TestClusterRolesFromManifest(t *testing.T) {
	const shards, responses = 4, 40
	nodeTS := []*httptest.Server{httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)}
	urls := make([]string, len(nodeTS))
	for i, ts := range nodeTS {
		urls[i] = "http://" + ts.Listener.Addr().String()
	}
	m, err := placement.RoundRobin(shards, urls)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	for i, ts := range nodeTS {
		serveRole(t, ts, roleFlags("node", path, urls[i]))
	}
	for _, u := range urls {
		meta, err := shardrpc.NewClient(u, roleToken, nil).Meta()
		if err != nil {
			t.Fatal(err)
		}
		if want := m.PrimaryShards(u); meta.TotalShards != shards || !reflect.DeepEqual(meta.OwnedShards, want) {
			t.Fatalf("node %s meta = %+v, want %d shards owning %v", u, meta, shards, want)
		}
	}

	fts := httptest.NewUnstartedServer(nil)
	serveRole(t, fts, roleFlags("frontend", path, ""))
	sv := survey.Awareness()
	roleRequest(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv)
	for i := 0; i < responses; i++ {
		roleRequest(t, http.MethodPost, fts.URL+"/api/v1/surveys/"+sv.ID+"/responses", &survey.Response{
			SurveyID: sv.ID, WorkerID: fmt.Sprintf("w%03d", i), PrivacyLevel: "medium", Obfuscated: true,
			Answers: []survey.Answer{survey.ChoiceAnswer("aware", i%2), survey.ChoiceAnswer("participate", 1)},
		})
	}
	var agg server.AggregateResult
	if err := json.Unmarshal(roleRequest(t, http.MethodGet, fts.URL+"/api/v1/surveys/"+sv.ID+"/aggregate", nil), &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.DegradedShards) != 0 || len(agg.Choices) == 0 || agg.Choices[0].N != responses {
		t.Fatalf("merged aggregate = %+v, want %d responses over every shard", agg, responses)
	}
}

// TestRoleStartupErrors: configurations that cannot place a node or a
// frontend fail at startup instead of serving a wrong shard set.
func TestRoleStartupErrors(t *testing.T) {
	m, err := placement.RoundRobin(2, []string{"http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cf   clusterFlags
		want string
	}{
		{"advertise owns no shard", roleFlags("node", path, "http://a:2"), "primary of no shard"},
		{"node without advertise", roleFlags("node", path, ""), "-advertise"},
		{"node without manifest", roleFlags("node", "", "http://a:1"), "-manifest"},
		{"frontend without manifest", roleFlags("frontend", "", ""), "-manifest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rl, err := setupTestRole(tc.cf)
			if err == nil {
				rl.close(log.New(io.Discard, "", 0))
				t.Fatal("role started")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
