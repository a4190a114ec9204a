// Package policy defines the contract between the training loop and a
// caching/sampling strategy, plus the baseline strategies the paper
// evaluates against (Baseline-LRU, LFU, CoorDL, SHADE, iCache). SpiderCache
// itself — the paper's contribution — lives in internal/core and implements
// the same interface.
package policy

// Source identifies where a requested sample was served from.
type Source uint8

// Serving tiers, in lookup order.
const (
	// SourceMiss: not cached anywhere; the trainer fetches from remote
	// storage and then offers the sample back via OnMiss.
	SourceMiss Source = iota
	// SourceCache: served from the policy's primary cache (LRU, static,
	// importance, ...) — the requested sample itself.
	SourceCache
	// SourceSubstitute: served by a *different* cached sample standing in
	// for the requested one (SpiderCache's homophily hit, iCache's random
	// L-sample replacement).
	SourceSubstitute
)

// String returns a short human-readable tier name.
func (s Source) String() string {
	switch s {
	case SourceMiss:
		return "miss"
	case SourceCache:
		return "cache"
	case SourceSubstitute:
		return "substitute"
	default:
		return "unknown"
	}
}

// Lookup is the outcome of consulting a policy's caches for one sample.
type Lookup struct {
	Source Source
	// ServedID is the sample actually delivered to training. Equal to the
	// requested ID except for substitute hits.
	ServedID int
}

// Feedback carries per-sample results of a forward pass back to the policy.
type Feedback struct {
	ID        int       // sample that was trained on (ServedID)
	Loss      float64   // cross-entropy of this sample
	Embedding []float64 // feature-extraction-layer output
}

// Policy is a pluggable caching + sampling strategy driven by the trainer.
// Implementations are single-goroutine; the trainer serialises all calls.
type Policy interface {
	// Name returns the policy's display name used in tables.
	Name() string
	// EpochOrder returns the sample IDs to train on this epoch, in order.
	EpochOrder(epoch int) []int
	// Lookup consults the caches for id without side effects on storage.
	Lookup(id int) Lookup
	// OnMiss offers a just-fetched sample (id, payload bytes) for
	// admission.
	OnMiss(id, size int)
	// OnBatchEnd delivers forward-pass feedback for the completed batch.
	OnBatchEnd(epoch int, fb []Feedback)
	// OnEpochEnd delivers the held-out accuracy measured after the epoch.
	OnEpochEnd(epoch int, accuracy float64)
	// BackpropWeights returns optional per-sample loss weights for the
	// batch (nil = train all uniformly; 0 entries skip backprop).
	BackpropWeights(fb []Feedback) []float64
	// HasGraphIS reports whether the policy runs the graph-based IS stage,
	// whose per-batch cost the trainer charges (with pipeline overlap).
	HasGraphIS() bool
}

// ScoreStdReporter is implemented by policies that track an importance-score
// distribution; the trainer records σ per epoch for Fig 6(c)/16 analyses.
type ScoreStdReporter interface {
	ScoreStd() float64
}

// RatioReporter is implemented by policies with an elastic cache split; the
// trainer records the Importance Cache share per epoch.
type RatioReporter interface {
	ImpRatio() float64
}

// SearchStatsReporter is implemented by policies whose scoring path queries
// an ANN index. Searches is the cumulative count of SearchKNN calls; the
// trainer diffs it per epoch so SearchKNN-calls/epoch is reportable.
// snapshotHits is always 0, kept for bench/ until the benchmark-only PR.
type SearchStatsReporter interface {
	SearchStats() (searches, snapshotHits int64)
}
