// Package storage simulates the remote persistent store (the paper's
// NFS-over-10GbE setup) that training data is fetched from on a cache miss,
// and the in-memory cache tier (the paper's Redis) that serves hits.
//
// Fetch costs are pure durations charged to the trainer's virtual clock:
//
//	remote miss: baseLatency + payload/bandwidth (+ deterministic jitter)
//	memory hit:  hitLatency  + payload/memBandwidth
package storage

import (
	"fmt"
	"time"

	"spidercache/internal/xrand"
)

// The calibrated cost model, approximating the paper's testbed: a dataset
// on NFS reached over a 10 Gbps datacenter network, with Redis serving
// in-memory hits. With CIFAR-like 3 KiB payloads a remote fetch costs
// ≈ 2.1 ms and a memory hit ≈ 12 µs, making data loading dominate epoch
// time exactly as the paper's Fig 3(a) reports (>60% share uncached).
const (
	baseLatency  = 2 * time.Millisecond // per-request remote latency floor
	bandwidth    = 64 << 20             // remote bytes/s: effective per-stream NFS throughput
	jitterFrac   = 0.10                 // +/- fraction of remote cost, deterministic RNG
	hitLatency   = 10 * time.Microsecond
	memBandwidth = 8 << 30 // in-memory bytes/s: memory-tier copy
)

// Store is the storage cost simulator.
type Store struct {
	rng *xrand.Rand
}

// New builds a Store; rng drives deterministic fetch jitter and must not be
// shared with other components.
func New(rng *xrand.Rand) (*Store, error) {
	if rng == nil {
		return nil, fmt.Errorf("storage: rng must not be nil")
	}
	return &Store{rng: rng}, nil
}

// FetchRemote returns the simulated cost of reading size bytes from the
// remote store.
func (s *Store) FetchRemote(size int) time.Duration {
	d := baseLatency + time.Duration(float64(size)/bandwidth*float64(time.Second))
	return time.Duration(float64(d) * (1 + (s.rng.Float64()*2-1)*jitterFrac))
}

// FetchMemory returns the simulated cost of serving size bytes from the
// in-memory cache tier.
func (s *Store) FetchMemory(size int) time.Duration {
	return hitLatency + time.Duration(float64(size)/memBandwidth*float64(time.Second))
}
