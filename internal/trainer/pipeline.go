package trainer

import (
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/storage"
	"spidercache/internal/tensor"
)

// batchData is one fully served mini-batch: the Stage 1 work of Algorithm 1
// (cache lookups, miss fetches, substitution, tensor materialisation) plus
// the serving counters.
type batchData struct {
	served []int
	x      *tensor.Matrix
	labels []int

	requests, misses, hitCache, hitSub int
	missLoad, hitLoad                  time.Duration
}

// serveBatch performs the data-loading stage for one mini-batch: every
// requested sample is served through the policy's caches (miss -> remote
// storage fetch + OnMiss admission), then the feature tensor is built.
//
// It calls pol.Lookup and pol.OnMiss — policies are single-threaded, so
// callers must never run serveBatch concurrently with any other policy
// call. The epoch loop runs it beside the previous batch's backward pass,
// which touches no policy state.
//
// On a policy miss, a non-nil rc (the shared remote cache tier) is
// consulted first: a hit is served at memory-tier cost, anything else —
// clean miss or transport error — degrades to the backing-storage fetch,
// with the payload written back best-effort. The sample remains a policy
// miss in the stats regardless, so EpochStats stay comparable across runs
// with and without the tier.
func serveBatch(pol policy.Policy, store *storage.Store, ds *dataset.Dataset, batch []int, rc RemoteCache, tel *runTelemetry) *batchData {
	d := &batchData{served: make([]int, len(batch))}
	for i, id := range batch {
		lk := pol.Lookup(id)
		d.served[i] = lk.ServedID
		d.requests++
		switch lk.Source {
		case policy.SourceMiss:
			d.misses++
			size := ds.Payload[id]
			served := false
			if rc != nil {
				if v, found, err := rc.Get(id); err != nil {
					tel.rcErr.Inc()
				} else if found {
					dur := store.FetchMemory(len(v))
					d.missLoad += dur
					tel.rcHit.Inc()
					tel.fetchMemory.Observe(dur.Seconds())
					served = true
				} else {
					tel.rcMiss.Inc()
				}
			}
			if !served {
				dur := store.FetchRemote(size)
				d.missLoad += dur
				tel.fetchRemote.Observe(dur.Seconds())
				if rc != nil {
					// Best-effort population: a failed write only costs
					// the next consumer a storage fetch.
					_ = rc.Set(id, make([]byte, size))
				}
			}
			tel.lookMiss.Inc()
			pol.OnMiss(id, size)
		case policy.SourceCache:
			d.hitCache++
			dur := store.FetchMemory(ds.Payload[lk.ServedID])
			d.hitLoad += dur
			tel.lookCache.Inc()
			tel.fetchMemory.Observe(dur.Seconds())
		case policy.SourceSubstitute:
			d.hitSub++
			dur := store.FetchMemory(ds.Payload[lk.ServedID])
			d.hitLoad += dur
			tel.lookSub.Inc()
			tel.fetchMemory.Observe(dur.Seconds())
		}
	}
	d.x, d.labels = batchTensors(ds, d.served)
	return d
}

// backwardStep runs one batch's MLP.Backward on its own goroutine, beside
// the policy's IS stage and the next batch's serving: the host-time form of
// the Fig 12 pipeline. A panic on that goroutine is captured and re-raised
// at the join, on the caller's stack, instead of crashing the process from
// a detached goroutine.
type backwardStep struct {
	done chan any // receives the recovered panic value, nil for a clean return
}

// start launches mlp.Backward(weights). The caller joins before it touches
// mlp again.
func (s *backwardStep) start(mlp *nn.MLP, weights []float64) {
	done := make(chan any, 1)
	s.done = done
	go func() {
		defer func() { done <- recover() }()
		mlp.Backward(weights)
	}()
}

// join waits for the running Backward, if any, and re-raises its panic.
func (s *backwardStep) join() {
	if s.done == nil {
		return
	}
	r := <-s.done
	s.done = nil
	if r != nil {
		panic(r)
	}
}
