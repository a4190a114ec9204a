package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"

	"spidercache/internal/xrand"
)

// stampLen is the head of every payload that identifies it: key, version,
// and a keyed hash of both, so a payload served for the wrong key or at
// the wrong version cannot verify.
const stampLen = 16

// keyspace derives every key's name and payload from the seed, so that a
// reply can be checked byte for byte without keeping the payloads: a
// payload is the key's stamp followed by a tail all keys share.
type keyspace struct {
	seed     uint64
	names    [][]byte
	valueLen int
	tail     []byte // valueLen bytes; the first stampLen are overwritten per key
}

func newKeyspace(seed uint64, keys, valueLen int) *keyspace {
	ks := &keyspace{seed: seed, names: make([][]byte, keys), valueLen: valueLen, tail: make([]byte, valueLen)}
	for i := range ks.names {
		ks.names[i] = []byte("key:" + strconv.Itoa(i))
	}
	rng := xrand.New(seed ^ 0x7a11)
	for i := 0; i+8 <= valueLen; i += 8 {
		binary.LittleEndian.PutUint64(ks.tail[i:], rng.Uint64())
	}
	return ks
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fill writes key's payload at the given version into dst (valueLen bytes).
func (ks *keyspace) fill(dst []byte, key int, version uint32) {
	copy(dst, ks.tail)
	ks.stamp(dst, key, version)
}

// stamp overwrites the head of a payload whose tail is already in place.
func (ks *keyspace) stamp(dst []byte, key int, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(key))
	binary.LittleEndian.PutUint32(dst[4:], version)
	binary.LittleEndian.PutUint64(dst[8:], mix64(ks.seed^uint64(key)<<32^uint64(version)))
}

// verify reports whether b is exactly key's payload at some version, and
// which.
func (ks *keyspace) verify(b []byte, key int) (version uint32, ok bool) {
	if len(b) != ks.valueLen || int(binary.LittleEndian.Uint32(b[0:])) != key {
		return 0, false
	}
	version = binary.LittleEndian.Uint32(b[4:])
	if binary.LittleEndian.Uint64(b[8:]) != mix64(ks.seed^uint64(key)<<32^uint64(version)) {
		return 0, false
	}
	return version, bytes.Equal(b[stampLen:], ks.tail[stampLen:])
}

// keyIndex parses a key name back to its index (-1 if it is not one).
func (ks *keyspace) keyIndex(name string) int {
	const prefix = "key:"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return -1
	}
	i, err := strconv.Atoi(name[len(prefix):])
	if err != nil || i < 0 || i >= len(ks.names) {
		return -1
	}
	return i
}

// embedSpace is a clustered unit-norm embedding per key: key i belongs to
// cluster i mod clusters and sits at its centroid plus per-coordinate
// Gaussian noise, the shape cmd/spiderload and the nget experiment use.
type embedSpace struct {
	clusters int
	vec      [][]float32
	wire     [][]byte // vec as little-endian float32s, ready to frame
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

func newEmbedSpace(seed uint64, keys, dim, clusters int, sigma float64) *embedSpace {
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	cents := make([][]float64, 0, clusters)
	for len(cents) < clusters {
		c := make([]float64, dim)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		normalize(c)
		// Keep centroids at cosine distance >= 0.6 from one another: a key's
		// cluster-mates then sit around 0.1 from it and the nearest key of
		// any other cluster around 0.3 or beyond, so a NEAR reply naming
		// another cluster means the index missed dozens of closer residents.
		far := true
		for _, o := range cents {
			if cosineDist64(c, o) < 0.6 {
				far = false
				break
			}
		}
		if far {
			cents = append(cents, c)
		}
	}
	es := &embedSpace{clusters: clusters, vec: make([][]float32, keys), wire: make([][]byte, keys)}
	v := make([]float64, dim)
	for k := range es.vec {
		c := cents[k%clusters]
		for i := range v {
			v[i] = c[i] + sigma*rng.NormFloat64()
		}
		normalize(v)
		es.vec[k] = make([]float32, dim)
		es.wire[k] = make([]byte, 4*dim)
		for i, x := range v {
			es.vec[k][i] = float32(x)
			binary.LittleEndian.PutUint32(es.wire[k][4*i:], math.Float32bits(float32(x)))
		}
	}
	return es
}

func cosineDist64(a, b []float64) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return 1 - dot
}

// cosineDist is the cosine distance between two keys' embeddings, computed
// as the server does: unit-normalize in float64, then 1 - a.b.
func (es *embedSpace) cosineDist(a, b int) float64 {
	va, vb := es.vec[a], es.vec[b]
	var dot, na, nb float64
	for i := range va {
		x, y := float64(va[i]), float64(vb[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	return 1 - dot/math.Sqrt(na*nb)
}
