package cluster_test

import (
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/dataset"
	"spidercache/internal/kvserver"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

// Client satisfies the trainer's remote cache contract.
var _ trainer.RemoteCache = (*cluster.Client)(nil)

func startNode(t *testing.T) *kvserver.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvserver.Serve(ln, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
	})
	return srv
}

// holds counts the samples below n whose payload the node at addr holds,
// read over the wire under the client's "sample:<id>" keys.
func holds(t *testing.T, addr string, n int) int {
	t.Helper()
	kc, err := kvserver.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	count := 0
	for id := 0; id < n; id++ {
		_, ok, err := kc.Get("sample:" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			count++
		}
	}
	return count
}

func trainOnce(t *testing.T, rc trainer.RemoteCache, reg *telemetry.Registry) {
	t.Helper()
	ds, err := dataset.New(dataset.Config{
		Name: "tiny", Classes: 4, TrainSize: 200, TestSize: 100, Dim: 8,
		ClusterStd: 0.8, BoundaryFrac: 0.1, IsolatedFrac: 0.02, HardFrac: 0.05,
		PayloadMean: 4096, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewBaselineLRU(ds.Len(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trainer.Config{
		Dataset: ds, Model: nn.ResNet18, Epochs: 2, BatchSize: 64,
		Workers: 1, PipelineIS: true, Seed: 7,
		RemoteCache: rc, Metrics: reg,
	}
	if _, err := trainer.Run(cfg, pol); err != nil {
		t.Fatalf("training run failed: %v", err)
	}
}

// TestTrainerThroughCluster runs a real training loop with the ring client
// as its remote cache tier: epoch 1 populates the kvserver nodes, epoch 2
// hits them.
func TestTrainerThroughCluster(t *testing.T) {
	a, b := startNode(t), startNode(t)
	reg := telemetry.NewRegistry()
	c, err := cluster.New(cluster.WithSeeds(a.Addr(), b.Addr()), cluster.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trainOnce(t, c, reg)
	if hits := reg.Counter("remote_cache_total", telemetry.Labels{"result": "hit"}).Value(); hits == 0 {
		t.Fatal("remote_cache_total{result=hit} = 0 after a warm epoch")
	}
	itemsA, itemsB := holds(t, a.Addr(), 200), holds(t, b.Addr(), 200)
	if itemsA == 0 || itemsB == 0 {
		t.Fatalf("training payloads did not spread: node items %d/%d", itemsA, itemsB)
	}
}

// TestTrainerDegradesWithClusterDown: with every node unreachable the run
// must complete from backing storage, counting errors instead of raising
// them.
func TestTrainerDegradesWithClusterDown(t *testing.T) {
	reg := telemetry.NewRegistry()
	seeds := []string{"127.0.0.1:1", "127.0.0.1:2"}
	c, err := cluster.New(
		cluster.WithSeeds(seeds...),
		cluster.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trainOnce(t, c, reg)
	if errs := reg.Counter("remote_cache_total", telemetry.Labels{"result": "error"}).Value(); errs == 0 {
		t.Fatal("remote_cache_total{result=error} = 0 with the cluster down")
	}
	// Every unreachable node's pool fails fast: a Get right after the run
	// wraps kvserver.ErrNodeDown from the last owner it tried.
	if _, _, err := c.Get(0); !errors.Is(err, cluster.ErrNoNodes) || !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("Get after the run = %v, want ErrNoNodes wrapping kvserver.ErrNodeDown", err)
	}
}
