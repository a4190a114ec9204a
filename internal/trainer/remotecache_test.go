package trainer

import (
	"errors"
	"testing"

	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
)

// flakyCache is a RemoteCache double whose every Nth op fails with a
// transport-style error, exercising the degrade-to-storage path.
type flakyCache struct {
	data    map[int][]byte
	every   int // 0 = never fail
	ops     int
	gets    int
	sets    int
	errs    int
	setFail bool // fail Sets too (not just Gets)
}

var errFlaky = errors.New("flaky cache: injected failure")

func newFlakyCache(every int, setFail bool) *flakyCache {
	return &flakyCache{data: make(map[int][]byte), every: every, setFail: setFail}
}

func (f *flakyCache) fail() bool {
	f.ops++
	if f.every > 0 && f.ops%f.every == 0 {
		f.errs++
		return true
	}
	return false
}

func (f *flakyCache) Get(id int) ([]byte, bool, error) {
	f.gets++
	if f.fail() {
		return nil, false, errFlaky
	}
	v, ok := f.data[id]
	return v, ok, nil
}

func (f *flakyCache) Set(id int, payload []byte) error {
	f.sets++
	if f.setFail && f.fail() {
		return errFlaky
	}
	f.data[id] = payload
	return nil
}

// TestRemoteCacheServesMisses: with a zero-capacity local cache every
// lookup is a policy miss; the remote tier absorbs repeats after the first
// epoch populates it, and the telemetry splits hit/miss correctly.
func TestRemoteCacheServesMisses(t *testing.T) {
	cfg := tinyConfig(t, 2)
	reg := telemetry.NewRegistry()
	rc := newFlakyCache(0, false)
	cfg.RemoteCache = rc
	cfg.Metrics = reg
	pol, err := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}

	hits := reg.Counter("remote_cache_total", telemetry.Labels{"result": "hit"}).Value()
	misses := reg.Counter("remote_cache_total", telemetry.Labels{"result": "miss"}).Value()
	errs := reg.Counter("remote_cache_total", telemetry.Labels{"result": "error"}).Value()
	n := int64(cfg.Dataset.Len())
	// Epoch 1 misses the cold tier and populates it; epoch 2 hits.
	if misses < n {
		t.Fatalf("remote_cache misses = %d, want >= %d (cold first epoch)", misses, n)
	}
	if hits < n {
		t.Fatalf("remote_cache hits = %d, want >= %d (warm second epoch)", hits, n)
	}
	if errs != 0 {
		t.Fatalf("remote_cache errors = %d with a healthy cache", errs)
	}
	// EpochStats accounting is tier-agnostic: a remote hit is still a
	// policy miss.
	for _, e := range res.Epochs {
		if e.Misses != e.Requests {
			t.Fatalf("epoch %d: misses %d != requests %d despite zero-capacity local cache", e.Epoch, e.Misses, e.Requests)
		}
	}
}

// TestRemoteCacheDegradesOnErrors: a cache failing every 3rd op must never
// fail the run — errors degrade to storage fetches and are counted.
func TestRemoteCacheDegradesOnErrors(t *testing.T) {
	cfg := tinyConfig(t, 2)
	reg := telemetry.NewRegistry()
	rc := newFlakyCache(3, true)
	cfg.RemoteCache = rc
	cfg.Metrics = reg
	pol, err := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, pol); err != nil {
		t.Fatalf("run with flaky remote cache failed: %v", err)
	}
	if errs := reg.Counter("remote_cache_total", telemetry.Labels{"result": "error"}).Value(); errs == 0 {
		t.Fatal("remote_cache_total{result=error} = 0, want > 0")
	}
	if rc.errs == 0 {
		t.Fatal("fake cache never injected a failure; test is vacuous")
	}
}
