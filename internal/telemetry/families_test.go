package telemetry_test

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/faultnet"
	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
	"spidercache/internal/nn"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

// TestModuleFamilies registers every family the module defines into one
// registry: a cluster Node with its embedded kvserver Server, a
// cluster.Client, a faultnet listener and a SpiderCache training run that
// consults the client as its remote cache. The registry panics on an
// invalid name or a kind conflict as each registers; this test checks the
// two conventions it cannot see at registration: a counter's name ends in
// _total and no other kind's does, and every Describe names a family that
// is registered.
func TestModuleFamilies(t *testing.T) {
	// The shared CPU pool's workers outlive the training run by design.
	leakcheck.Check(t, leakcheck.IgnoreFunc("internal/par.worker"))
	reg := telemetry.NewRegistry()

	store := kvserver.DefaultConfig()
	store.Capacity = 1 << 10
	node, err := cluster.StartNode(cluster.NodeOptions{
		Listen: "127.0.0.1:0", Replicas: 1, Store: store,
		GossipEvery: time.Hour, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
	})
	client, err := cluster.New(cluster.WithSeeds(node.Addr()), cluster.WithReplicas(1), cluster.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faultnet.WrapListener(ln, faultnet.Config{Registry: reg}).Close()

	ds, err := dataset.New(dataset.Config{
		Name: "tiny", Classes: 4, TrainSize: 200, TestSize: 100, Dim: 8,
		ClusterStd: 0.8, PayloadMean: 512, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := experiments.BuildPolicy("spider", experiments.PolicyParams{
		Dataset: ds, Capacity: 40, Epochs: 1, Seed: 11, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Run(trainer.Config{
		Dataset: ds, Model: nn.ResNet18, Epochs: 1, BatchSize: 64, Workers: 1,
		Seed: 7, RemoteCache: client, Metrics: reg,
	}, pol); err != nil {
		t.Fatal(err)
	}

	families := reg.Families()
	snap := reg.Snapshot()
	kinds := map[string]string{}
	for id := range snap.Counters {
		kinds[family(id)] = "counter"
	}
	for id := range snap.Gauges {
		kinds[family(id)] = "gauge"
	}
	for id := range snap.Histograms {
		kinds[family(id)] = "histogram"
	}
	if len(kinds) != len(families) {
		t.Fatalf("snapshot holds %d families, Families lists %d", len(kinds), len(families))
	}
	for _, name := range families {
		if counter := kinds[name] == "counter"; counter != strings.HasSuffix(name, "_total") {
			t.Errorf("%s %q: counters, and only counters, end in _total", kinds[name], name)
		}
	}
	for _, name := range reg.Described() {
		if !slices.Contains(families, name) {
			t.Errorf("Describe(%q) names no registered family; its help text is never emitted", name)
		}
	}
	t.Logf("%d families, %d described", len(families), len(reg.Described()))
}

// family strips a snapshot series id down to its family name.
func family(id string) string {
	name, _, _ := strings.Cut(id, "{")
	return name
}
