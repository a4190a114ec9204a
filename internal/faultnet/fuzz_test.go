package faultnet_test

import (
	"bytes"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"spidercache/internal/faultnet"
	"spidercache/internal/kvserver"
)

// fuzzCase numbers fuzz executions so each case works on a fresh key: the
// kvserver instance is shared across cases, and a stale value from an
// earlier case must not masquerade as a torn write.
var fuzzCase atomic.Int64

// FuzzClientFraming drives the kvserver request/reply protocol through a
// fault-injecting connection and asserts the one invariant that matters:
// faults may surface as errors, but a call that returns err == nil must
// have an exactly correct result. A partial write or short read must never
// silently corrupt a reply.
//
// The fuzzer varies the fault seed, the per-op fault probabilities, and
// the key/value payload, so the corpus explores different interleavings of
// injected faults against protocol state.
func FuzzClientFraming(f *testing.F) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv, err := kvserver.Serve(ln, 1<<20, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		srv.Close()
	})

	f.Add(uint64(1), uint16(200), uint16(500), []byte("k0"), []byte("hello"))
	f.Add(uint64(7), uint16(0), uint16(0), []byte("key-long-name"), bytes.Repeat([]byte{0xAB}, 4096))
	f.Add(uint64(42), uint16(1000), uint16(1000), []byte("x"), []byte{})
	f.Add(uint64(9999), uint16(50), uint16(50), []byte("abc"), bytes.Repeat([]byte("v"), 257))

	f.Fuzz(func(t *testing.T, seed uint64, shortMil uint16, partialMil uint16, key []byte, value []byte) {
		// Clamp probabilities to [0, 0.5] so some ops usually get through.
		shortP := float64(shortMil%1000) / 2000
		partialP := float64(partialMil%1000) / 2000

		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultnet.Config{
			Seed:             seed,
			ShortReadProb:    shortP,
			PartialWriteProb: partialP,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		fc := faultnet.Wrap(raw, cfg)
		// The timeout keeps a desynced framing bug from hanging the fuzzer
		// instead of failing it.
		c := kvserver.NewClient(fc, 500*time.Millisecond)
		defer c.Close()

		k := sanitizeKey(key) + "-" + strconv.FormatInt(fuzzCase.Add(1), 10)
		// A per-case embedding exercises the binary embedding frame
		// (ESET payload, NGET request) through the same fault stream.
		// NGETs use threshold 0, which the server serves with exact GET
		// semantics — so the Get invariants below apply verbatim and a
		// NEAR reply would itself be a framing bug.
		emb := []float32{float32(seed%97) + 1, float32(len(value)%13) + 1}
		wrote := false
		checkRead := func(got []byte, found bool) {
			if wrote {
				if !found {
					t.Fatalf("read after successful Set: not found (seed=%d)", seed)
				}
				if !bytes.Equal(got, value) {
					t.Fatalf("read returned corrupt value: got %d bytes, want %d (seed=%d)", len(got), len(value), seed)
				}
			} else if found && !bytes.Equal(got, value) {
				// A Set that errored may or may not have landed, but if a
				// value exists it must be the exact payload — never a
				// torn/corrupt one.
				t.Fatalf("read returned torn value after failed Set (seed=%d)", seed)
			}
		}
		for i := 0; i < 12; i++ {
			switch i % 4 {
			case 0:
				p := c.Pipeline()
				p.Set(k, value)
				if res, err := p.Exec(); err == nil && res[0].Err == nil {
					wrote = true
				}
			case 1:
				got, found, err := c.Get(k)
				if err != nil {
					continue // fault surfaced as an error: allowed
				}
				checkRead(got, found)
			case 2:
				// Faults may surface as errors; a clean STORED means the
				// embedding frame survived the wire intact.
				// A fault-injected ESET may fail; framing is checked by the NGET below.
				p := c.Pipeline()
				p.ESet(k, emb)
				p.Exec()
			default:
				p := c.Pipeline()
				p.NGet(k, emb, 0)
				res, err := p.Exec()
				if err == nil {
					err = res[0].Err
				}
				if err != nil {
					continue
				}
				got, near, found := res[0].Value, res[0].Near, res[0].Found
				if near != nil {
					t.Fatalf("threshold-0 NGet answered NEAR %q (seed=%d)", near.Key, seed)
				}
				checkRead(got, found)
			}
		}
	})
}

// sanitizeKey maps arbitrary fuzz bytes onto the protocol's key alphabet
// (non-empty, no spaces/control chars) so validation rejections don't
// drown out framing coverage.
func sanitizeKey(b []byte) string {
	if len(b) == 0 {
		return "k"
	}
	if len(b) > 64 {
		b = b[:64]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = 'a' + c%26
	}
	return string(out)
}
