// Package spidercache is the root of a reproduction of "SpiderCache:
// Semantic-Aware Caching Strategy for DNN Training" (ICPP 2025) on a fully
// simulated, single-binary substrate. It holds no code, only the module's
// end-to-end tests.
//
// One training run is trainer.Run with a policy from
// experiments.BuildPolicy; cmd/spidertrain drives it from flags. The paper's
// tables and figures are experiments.Run; cmd/spiderbench drives it. See
// DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
// results.
package spidercache
