package kvserver

// Semantic serving: the NGET/ESET verb pair (see the package comment's
// protocol table).
//
//	ESET <key> <dim>\r\n<dim little-endian float32s>\r\n
//	NGET <key> <threshold> <dim>\r\n<dim little-endian float32s>\r\n
//
// ESET attaches an embedding to a resident key in the node-local semantic
// index (semindex.go); an ESET of a key the store does not hold is
// answered STORED and unlinked at once, as an eviction would. NGET is
// GET with a fallback: an exact hit answers VALUE exactly like GET; on a
// miss, the index is consulted and the
// nearest *resident* neighbor within the cosine-distance threshold is
// served as "NEAR <key> <dist> <nbytes>" so the client can tell a
// substitute from the real thing. Embeddings are unit-normalized at
// the boundary, so cosine distance (1 − a·b, range [0,2]) is derived
// from the index's Euclidean metric as d²/2.
//
// A threshold of 0 never consults the index: it requests exact-match
// semantics, and the reply stream is byte-identical to GET (two
// distinct keys may carry identical embeddings, so even a zero
// distance does not imply the exact key).

import (
	"encoding/binary"
	"io"
	"math"
	"strconv"
	"time"
)

// MaxEmbedDim bounds the dimensionality of an ESET/NGET embedding.
const MaxEmbedDim = 1024

// ngetDistDigits is the fixed fraction width of the NEAR reply's
// distance field. Cosine distances live in [0, 2]; six digits keep the
// field short, stable, and far finer than any useful threshold.
const ngetDistDigits = 6

// parseThreshold parses NGET's cosine-distance threshold field: a
// finite, non-negative decimal float.
func parseThreshold(b []byte) (float64, error) {
	t, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return 0, errBadThreshold
	}
	return t, nil
}

// readEmbedding validates a <dim> header field, reads the
// CRLF-terminated payload of dim little-endian float32s, and returns
// the unit-normalized vector. The slice aliases session scratch — it
// is only valid until the next readEmbedding on this session (the
// semantic index copies on upsert, and searches do not retain it).
func (sess *session) readEmbedding(dimField []byte) ([]float64, error) {
	dim, err := parseLength(dimField)
	if err != nil || dim < 1 || dim > MaxEmbedDim {
		return nil, errBadEmbedDim
	}
	n := dim * 4
	if cap(sess.emb) < n {
		sess.emb = make([]byte, n)
	}
	buf := sess.emb[:n]
	if _, err := io.ReadFull(sess.r, buf); err != nil {
		return nil, err
	}
	if err := sess.expectCRLF(); err != nil {
		return nil, err
	}
	if cap(sess.vec) < dim {
		sess.vec = make([]float64, dim)
	}
	vec := sess.vec[:dim]
	var norm float64
	for i := 0; i < dim; i++ {
		f := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errBadEmbedDim
		}
		vec[i] = f
		norm += f * f
	}
	// A zero vector has no direction, so cosine distance to it is
	// undefined; reject it with the same stable error as a bad dim.
	if norm == 0 {
		return nil, errBadEmbedDim
	}
	inv := 1 / math.Sqrt(norm)
	for i := range vec {
		vec[i] *= inv
	}
	return vec, nil
}

// doESet handles "ESET <key> <dim>": index the embedding under key, for
// as long as key is resident.
func (s *Server) doESet(sess *session, args [][]byte) error {
	if len(args) != 2 {
		return errBadArgs
	}
	if len(args[0]) > MaxKeyLen {
		return errKeyTooLong
	}
	start := time.Now()
	// Copy the key BEFORE the payload read refills the reader's buffer
	// (args alias it).
	sess.key = append(sess.key[:0], args[0]...)
	vec, err := sess.readEmbedding(args[1])
	if err != nil {
		return err
	}
	if err := s.sem.upsert(sess.key, vec); err != nil {
		return err
	}
	// Eviction is the only other unlink path, and it never fires for a
	// key that is not resident: without this check such an ESET
	// would stay indexed for good. An eviction before the probe is caught
	// here, one after it by the evict hook.
	if !s.store.has(sess.key) {
		s.unlinkEmbedding(string(sess.key))
	}
	_, err = sess.w.WriteString("STORED\r\n")
	s.tel.esetOps.Inc()
	s.tel.esetLat.Observe(time.Since(start).Seconds())
	return err
}

// doNGet handles "NGET <key> <threshold> <dim>": GET with semantic
// fallback.
func (s *Server) doNGet(sess *session, args [][]byte) error {
	if len(args) != 3 {
		return errBadArgs
	}
	if len(args[0]) > MaxKeyLen {
		return errKeyTooLong
	}
	threshold, err := parseThreshold(args[1])
	if err != nil {
		return err
	}
	start := time.Now()
	sess.key = append(sess.key[:0], args[0]...) // args alias the reader buffer; see doESet
	q, err := sess.readEmbedding(args[2])
	if err != nil {
		return err
	}
	sess.hdr = append(sess.hdr[:0], "VALUE "...)
	if get(s.store, sess.key, sess.stage) {
		err := sess.sendValue(true)
		s.tel.semExact.Inc()
		s.tel.ngetLat.Observe(time.Since(start).Seconds())
		return err
	}
	if threshold > 0 {
		for _, nb := range s.sem.lookup(sess, q) {
			if nb.dist > threshold {
				break // candidates ascend; nothing closer is coming
			}
			if nb.key == string(sess.key) {
				// The query key's own (stale) embedding; its value is
				// gone, so it cannot substitute for itself.
				continue
			}
			sess.hdr = append(sess.hdr[:0], "NEAR "...)
			sess.hdr = append(sess.hdr, nb.key...)
			sess.hdr = append(sess.hdr, ' ')
			sess.hdr = strconv.AppendFloat(sess.hdr, nb.dist, 'f', ngetDistDigits, 64)
			sess.hdr = append(sess.hdr, ' ')
			if !get(s.store, nb.key, sess.stage) {
				continue // indexed but evicted; try the next-nearest
			}
			err := sess.sendValue(true)
			s.tel.semNear.Inc()
			s.tel.semDist.Observe(nb.dist)
			s.tel.ngetLat.Observe(time.Since(start).Seconds())
			return err
		}
	}
	err = sess.sendValue(false)
	s.tel.semMiss.Inc()
	s.tel.ngetLat.Observe(time.Since(start).Seconds())
	return err
}
