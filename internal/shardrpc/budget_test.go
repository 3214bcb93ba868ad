package shardrpc

import (
	"fmt"
	"testing"

	"loki/internal/budget"
	"loki/internal/placement"
)

// TestPiggybackFollowsChargerLayout: with replicas in the manifest, the
// piggyback colocation test agrees with where RemoteCharger sends each
// worker's charge — budget shards lie over the primaries only, never
// the replica clients — and after a promotion it never picks the
// promoted replica, which hosts no budget shard.
func TestPiggybackFollowsChargerLayout(t *testing.T) {
	const shards, workers = 8, 1000
	m, err := placement.RoundRobin(shards, []string{"http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	for s := range m.Shards {
		m.Shards[s].Replicas = []string{[]string{"http://ra", "http://rb"}[s%2]}
	}
	remote, err := NewRemoteFromManifest(m, "cluster-token", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.EnablePiggybackCharges(shards); err != nil {
		t.Fatal(err)
	}
	nodes := m.Nodes()
	clients := make([]*Client, len(nodes))
	for i, u := range nodes {
		clients[i] = NewClient(u, "cluster-token", nil)
	}
	charger, err := NewRemoteCharger(clients, shards, budget.Config{CapEpsilon: 10, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	chargeHost := func(worker string) string {
		return charger.batchers[budget.Route(worker, shards)].client.BaseURL()
	}

	fused := 0
	for w := 0; w < workers; w++ {
		worker := fmt.Sprintf("w%04d", w)
		for s := 0; s < shards; s++ {
			want := chargeHost(worker) == m.Placement(s).Primary
			if got := remote.CanPiggybackCharge(s, worker); got != want {
				t.Fatalf("shard %d worker %s: piggyback %v, charger host %s, primary %s",
					s, worker, got, chargeHost(worker), m.Placement(s).Primary)
			}
			if want {
				fused++
			}
		}
	}
	if fused == 0 {
		t.Fatal("no (worker, shard) pair is colocated")
	}

	promoted := m.Clone()
	if _, err := promoted.Promote(0, "http://ra"); err != nil {
		t.Fatal(err)
	}
	if err := remote.ApplyManifest(promoted); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		worker := fmt.Sprintf("w%04d", w)
		if remote.CanPiggybackCharge(0, worker) {
			t.Fatalf("worker %s piggybacks onto the promoted replica", worker)
		}
		for s := 1; s < shards; s++ {
			if got, want := remote.CanPiggybackCharge(s, worker), chargeHost(worker) == m.Placement(s).Primary; got != want {
				t.Fatalf("after promotion, shard %d worker %s: piggyback %v, want %v", s, worker, got, want)
			}
		}
	}
}
