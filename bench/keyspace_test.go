package main

import (
	"math"
	"testing"

	"spidercache/internal/xrand"
)

func TestPayloadVerify(t *testing.T) {
	ks := newKeyspace(7, 100, 3072)
	buf := make([]byte, 3072)
	ks.fill(buf, 42, 9)
	if ver, ok := ks.verify(buf, 42); !ok || ver != 9 {
		t.Fatalf("own payload: version %d ok %v", ver, ok)
	}
	if _, ok := ks.verify(buf, 43); ok {
		t.Error("payload verified for another key")
	}
	if _, ok := ks.verify(buf[:3071], 42); ok {
		t.Error("short payload verified")
	}
	for _, i := range []int{5, 9, 20, 3071} { // version, hash, tail
		buf[i] ^= 1
		if _, ok := ks.verify(buf, 42); ok {
			t.Errorf("payload with byte %d flipped verified", i)
		}
		buf[i] ^= 1
	}
	other := newKeyspace(8, 100, 3072)
	if _, ok := other.verify(buf, 42); ok {
		t.Error("payload of another seed verified")
	}
	if got := ks.keyIndex("key:42"); got != 42 {
		t.Errorf("keyIndex = %d", got)
	}
	for _, bad := range []string{"key:100", "key:-1", "key:", "k:1", "sample:1", "key:1x"} {
		if got := ks.keyIndex(bad); got != -1 {
			t.Errorf("keyIndex(%q) = %d", bad, got)
		}
	}
}

func TestEmbedSpace(t *testing.T) {
	es := newEmbedSpace(3, 1024, 16, 64, 0.08)
	for k, v := range es.vec {
		var n float64
		for _, x := range v {
			n += float64(x) * float64(x)
		}
		if math.Abs(n-1) > 1e-5 {
			t.Fatalf("embedding %d has norm² %v", k, n)
		}
	}
	// Cluster-mates are near; every other cluster is far by comparison.
	var mates, others, nm, no float64
	minOther := 2.0
	for a := 0; a < 128; a++ {
		for b := a + 1; b < 1024; b++ {
			d := es.cosineDist(a, b)
			if a%64 == b%64 {
				mates += d
				nm++
			} else {
				others += d
				no++
				minOther = math.Min(minOther, d)
			}
		}
	}
	if mates/nm > 0.15 || others/no < 0.6 || minOther < 0.2 {
		t.Errorf("mean distance to cluster-mates %v, to other clusters %v (nearest %v)", mates/nm, others/no, minOther)
	}
}

func TestWireTargetChecksNear(t *testing.T) {
	tg := newWireTarget(wireNGet, 5)
	payload := func(key int) []byte {
		b := make([]byte, wireNGet.valueLen)
		tg.ks.fill(b, key, 1)
		return b
	}
	const key, mate, stranger = 3, 3 + 64, 4
	d := tg.es.cosineDist(key, mate)
	near := func(name string, dist float64, body []byte) *reply {
		return &reply{Kind: replyNear, NearKey: name, NearDist: dist, Body: body}
	}
	if hit, err := tg.check(opNGet, key, near("key:67", d, payload(mate))); err != nil || !hit {
		t.Fatalf("a cluster-mate with its own bytes must pass: %v", err)
	}
	for name, rep := range map[string]*reply{
		"another cluster's key":  near("key:4", tg.es.cosineDist(key, stranger), payload(stranger)),
		"the requested key":      near("key:3", 0, payload(key)),
		"someone else's bytes":   near("key:67", d, payload(key)),
		"a misreported distance": near("key:67", d+0.01, payload(mate)),
		"not a key":              near("sample:67", d, payload(mate)),
		"a server error":         {Kind: replyServerError, Message: "bad threshold"},
		"STORED for a read":      {Kind: replyStored},
	} {
		if _, err := tg.check(opNGet, key, rep); err == nil {
			t.Errorf("%s passed the check", name)
		}
	}
	if hit, err := tg.check(opNGet, key, &reply{Kind: replyNotFound}); hit || err != nil {
		t.Error("NOT_FOUND is a clean miss")
	}
	if hit, err := tg.check(opGet, key, &reply{Kind: replyValue, Body: payload(key)}); !hit || err != nil {
		t.Errorf("VALUE with the key's bytes must pass: %v", err)
	}
	if _, err := tg.check(opGet, key, &reply{Kind: replyValue, Body: payload(mate)}); err == nil {
		t.Error("VALUE with another key's bytes passed")
	}
	if _, err := tg.check(opSet, key, &reply{Kind: replyNotFound}); err == nil {
		t.Error("a write answered NOT_FOUND passed")
	}
}

// The churn op is a SET followed at once by the ESET of the same key.
func TestMixTrafficPairsSetWithESet(t *testing.T) {
	m := newMixTraffic(wireNGet, xrand.New(1))
	sets := 0
	for i := 0; i < 20000; i++ {
		kind, key, _ := m.next()
		if kind == opSet {
			sets++
			k2, key2, _ := m.next()
			if k2 != opESet || key2 != key {
				t.Fatalf("SET of %d followed by %v of %d", key, k2, key2)
			}
		} else if kind != opNGet {
			t.Fatalf("unexpected op %v", kind)
		}
	}
	if share := float64(sets) / 20000; share < 0.07 || share > 0.12 {
		t.Errorf("write share %v, want about 10%% of draws", share)
	}
}
