package storage

import (
	"testing"
	"time"

	"spidercache/internal/xrand"
)

func TestValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestRemoteCostModel(t *testing.T) {
	s, err := New(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	small := s.FetchRemote(1 << 10)
	large := s.FetchRemote(1 << 20)
	if large <= small {
		t.Fatalf("larger payload not slower: %v vs %v", large, small)
	}
	if floor := time.Duration(float64(baseLatency) * (1 - jitterFrac)); small < floor {
		t.Fatalf("fetch %v below jittered base latency %v", small, floor)
	}
}

func TestMemoryMuchFasterThanRemote(t *testing.T) {
	s, _ := New(xrand.New(1))
	remote := s.FetchRemote(3 << 10)
	memory := s.FetchMemory(3 << 10)
	if remote < 20*memory {
		t.Fatalf("remote/memory ratio too small: %v vs %v", remote, memory)
	}
}

func TestJitterBounds(t *testing.T) {
	s, _ := New(xrand.New(2))
	size := 3 << 10
	base := baseLatency + time.Duration(float64(size)/bandwidth*float64(time.Second))
	lo := time.Duration(float64(base) * (1 - jitterFrac))
	hi := time.Duration(float64(base) * (1 + jitterFrac))
	for i := 0; i < 500; i++ {
		d := s.FetchRemote(size)
		if d < lo-time.Microsecond || d > hi+time.Microsecond {
			t.Fatalf("jittered fetch %v outside [%v,%v]", d, lo, hi)
		}
	}
}

func TestDefaultCalibration(t *testing.T) {
	// The documented calibration: a CIFAR-like 3 KiB remote fetch costs
	// about 2 ms; an in-memory hit costs ~10 µs.
	s, _ := New(xrand.New(1))
	remote := s.FetchRemote(3 << 10)
	if remote < time.Millisecond || remote > 5*time.Millisecond {
		t.Fatalf("3KiB remote fetch = %v, want ~2ms", remote)
	}
	mem := s.FetchMemory(3 << 10)
	if mem > 100*time.Microsecond {
		t.Fatalf("3KiB memory hit = %v, want ~10µs", mem)
	}
}
