package experiments

import (
	"fmt"
	"math"
	"net"

	"spidercache/internal/kvserver"
	"spidercache/internal/table"
	"spidercache/internal/xrand"
)

// ngetThresholds is the cosine-distance sweep grid for semantic serving:
// 0 disables the index (exact GET semantics), 0.3 is the calibrated
// default for the clustered key space below, and 0.8 sits past the
// cross-cluster separation where semantic substitution stops being safe.
var ngetThresholds = []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50, 0.80}

// NGet calibrates the NGET serving threshold against a kvserver whose
// capacity holds only half the key population: every key is SET and
// ESET once, evictions leave a resident subset, and each key's own
// embedding is then queried at every threshold. Exact hits measure
// residency, NEAR hits measure semantic substitution from the HNSW
// index, and the cross-cluster rate measures substitution that crossed a
// semantic cluster boundary — the failure mode a calibrated threshold
// must keep at zero. The threshold-0 row is the exact-GET baseline.
func NGet(opt Options) (*Report, error) {
	keys := int(4000 * opt.Scale)
	if keys < 64 {
		keys = 64
	}
	capacity := keys / 2
	const dim = 16
	clusters := keys / 32
	if clusters < 4 {
		clusters = 4
	}
	embs := ngetEmbeddings(opt.Seed, keys, dim, clusters)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := kvserver.Serve(ln, capacity, nil, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := kvserver.Dial(srv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Preload sequentially over one connection: with the mutex store's
	// strict LRU this makes the resident subset a deterministic function
	// of the seed alone.
	key := func(id int) string { return fmt.Sprintf("k:%d", id) }
	const chunk = 64
	p := c.Pipeline()
	for id := 0; id < keys; id++ {
		p.Set(key(id), []byte(key(id)))
		p.ESet(key(id), embs[id])
		if p.Len() >= chunk || id == keys-1 {
			if err := execAll(p); err != nil {
				return nil, err
			}
		}
	}

	t := table.New("NGET threshold calibration: semantic serving on a half-resident clustered key space",
		"Threshold", "Exact%", "Near%", "Miss%", "EffHit%", "MeanDist", "Cross%")

	var baseHit, defaultEff, defaultCross float64
	var deviations []string
	for _, threshold := range ngetThresholds {
		var exact, near, miss, cross int
		var distSum float64
		for lo := 0; lo < keys; lo += chunk {
			hi := lo + chunk
			if hi > keys {
				hi = keys
			}
			for id := lo; id < hi; id++ {
				p.NGet(key(id), embs[id], threshold)
			}
			rs, err := p.Exec()
			if err != nil {
				return nil, err
			}
			for i, r := range rs {
				if r.Err != nil {
					return nil, r.Err
				}
				id := lo + i
				switch {
				case r.Near != nil:
					near++
					distSum += r.Near.Dist
					var nbID int
					if _, err := fmt.Sscanf(r.Near.Key, "k:%d", &nbID); err != nil {
						return nil, fmt.Errorf("nget: unexpected neighbor key %q", r.Near.Key)
					}
					if nbID%clusters != id%clusters {
						cross++
					}
				case r.Found:
					exact++
				default:
					miss++
				}
			}
		}

		total := float64(keys)
		eff := float64(exact+near) / total
		meanDist := 0.0
		if near > 0 {
			meanDist = distSum / float64(near)
		}
		crossRate := 0.0
		if near > 0 {
			crossRate = float64(cross) / float64(near)
		}
		if threshold == 0 {
			baseHit = eff
		}
		if threshold == 0.30 {
			defaultEff, defaultCross = eff, crossRate
		}
		t.AddRow(fmt.Sprintf("%.2f", threshold),
			percent(float64(exact)/total),
			percent(float64(near)/total),
			percent(float64(miss)/total),
			percent(eff),
			fmt.Sprintf("%.4f", meanDist),
			percent(crossRate))

		// Guardrails on the curve's shape: semantic serving must never
		// lose exact hits, and the calibrated band must stay clean of
		// cross-cluster substitution.
		if eff < baseHit {
			deviations = append(deviations, fmt.Sprintf(
				"deviation: threshold %.2f effective hit %.1f%% fell below the exact-GET baseline %.1f%%",
				threshold, eff*100, baseHit*100))
		}
		if threshold > 0 && threshold <= 0.30 && crossRate > 0 {
			deviations = append(deviations, fmt.Sprintf(
				"deviation: threshold %.2f served %.1f%% cross-cluster substitutes; the calibrated band should serve none",
				threshold, crossRate*100))
		}
	}

	notes := []string{
		"expected: Near% grows with the threshold and saturates once every evicted key's cluster mates are reachable; Cross% stays 0 until the threshold nears the cross-cluster distance (~1)",
		fmt.Sprintf("default threshold 0.30 lifts the effective hit ratio from %.1f%% (exact-only) to %.1f%% with %.1f%% cross-cluster substitution",
			baseHit*100, defaultEff*100, defaultCross*100),
	}
	notes = append(notes, deviations...)
	return &Report{ID: "nget", Title: "Semantic-hit threshold calibration over the wire", Tables: []*table.Table{t}, Notes: notes}, nil
}

// execAll flushes a pipeline and surfaces the first per-op error.
func execAll(p *kvserver.Pipeline) error {
	rs, err := p.Exec()
	if err != nil {
		return err
	}
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// ngetEmbeddings builds one unit-norm embedding per key from `clusters`
// random centroids plus small within-cluster noise (key id belongs to
// cluster id%clusters): same-cluster cosine distances land around
// 10^-2, cross-cluster pairs are near-orthogonal, so the sweep grid
// actually brackets the interesting region.
func ngetEmbeddings(seed uint64, n, dim, clusters int) [][]float32 {
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	cents := make([][]float64, clusters)
	for ci := range cents {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		ngetNormalize(v)
		cents[ci] = v
	}
	const noise = 0.08
	out := make([][]float32, n)
	v := make([]float64, dim)
	for id := range out {
		cent := cents[id%clusters]
		for i := range v {
			v[i] = cent[i] + noise*rng.NormFloat64()
		}
		ngetNormalize(v)
		emb := make([]float32, dim)
		for i := range v {
			emb[i] = float32(v[i])
		}
		out[id] = emb
	}
	return out
}

func ngetNormalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= n
	}
}
