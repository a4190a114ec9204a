package telemetry_test

import (
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/faultnet"
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
// conventions it cannot see at registration: a counter's name ends in
// _total and no other kind's does, every registered family is described,
// every Describe names a family that is registered, and DESIGN.md's family
// table has a row for exactly the registered families, so a family cannot
// be added without naming the question it answers, nor deleted while the
// table still promises it.
func TestModuleFamilies(t *testing.T) {
	leakcheck.Check(t)
	reg := telemetry.NewRegistry()

	node, err := cluster.StartNode(cluster.NodeOptions{
		Listen: "127.0.0.1:0", Capacity: 1 << 10,
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

	families, described := reg.Families(), reg.Described()
	for _, name := range families {
		kind := reg.Kind(name)
		if counter := kind == "counter"; counter != strings.HasSuffix(name, "_total") {
			t.Errorf("%s %q: counters, and only counters, end in _total", kind, name)
		}
		if !slices.Contains(described, name) {
			t.Errorf("%s %q has no Describe; METRICS prints it without help text", kind, name)
		}
	}
	for _, name := range described {
		if !slices.Contains(families, name) {
			t.Errorf("Describe(%q) names no registered family; its help text is never emitted", name)
		}
	}
	table := designFamilies(t)
	for _, name := range families {
		if !slices.Contains(table, name) {
			t.Errorf("family %q is registered but has no row in DESIGN.md's %q table: name the question it answers and its reader, or delete it", name, familyTableHeading)
		}
	}
	for _, name := range table {
		if !slices.Contains(families, name) {
			t.Errorf("DESIGN.md's %q table names %q, which nothing registers", familyTableHeading, name)
		}
	}
	t.Logf("%d families, %d described", len(families), len(described))
}

// familyTableHeading is the DESIGN.md section whose table has one row per
// registered family.
const familyTableHeading = "Telemetry: one question per family"

// designFamilies returns the family named in the first cell of each row of
// DESIGN.md's family table, in order.
func designFamilies(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	in := false
	for line := range strings.Lines(string(data)) {
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, familyTableHeading)
			continue
		}
		cells := strings.Split(line, "|")
		if !in || len(cells) < 3 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if name, ok := strings.CutPrefix(first, "`"); ok && strings.HasSuffix(name, "`") {
			names = append(names, strings.TrimSuffix(name, "`"))
		}
	}
	if len(names) == 0 {
		t.Fatalf("DESIGN.md has no family table under a %q heading", familyTableHeading)
	}
	return names
}
