package main

import (
	"errors"
	"reflect"
	"testing"

	"spidercache/internal/hnsw"
	"spidercache/internal/policy"
)

// plainPolicy implements policy.Policy and none of the optional reporters.
type plainPolicy struct {
	calls []string
}

func (p *plainPolicy) log(s string)               { p.calls = append(p.calls, s) }
func (p *plainPolicy) Name() string               { return "plain" }
func (p *plainPolicy) EpochOrder(epoch int) []int { p.log("order"); return []int{2, 0, 1} }
func (p *plainPolicy) Lookup(id int) policy.Lookup {
	p.log("lookup")
	if id == 0 {
		return policy.Lookup{Source: policy.SourceSubstitute, ServedID: 7}
	}
	return policy.Lookup{Source: policy.SourceMiss, ServedID: id}
}
func (p *plainPolicy) OnMiss(id, size int)               { p.log("miss") }
func (p *plainPolicy) OnBatchEnd(int, []policy.Feedback) { p.log("batch") }
func (p *plainPolicy) OnEpochEnd(int, float64)           { p.log("epoch") }
func (p *plainPolicy) BackpropWeights([]policy.Feedback) []float64 {
	p.log("weights")
	return []float64{1, 0}
}
func (p *plainPolicy) HasGraphIS() bool { return true }

// reportingPolicy adds the three optional interfaces.
type reportingPolicy struct{ plainPolicy }

func (*reportingPolicy) ScoreStd() float64           { return 0.25 }
func (*reportingPolicy) ImpRatio() float64           { return 0.8 }
func (*reportingPolicy) SearchStats() (int64, int64) { return 11, 3 }

func drive(p policy.Policy) {
	p.EpochOrder(0)
	p.Lookup(0)
	p.Lookup(1)
	p.OnMiss(1, 100)
	p.BackpropWeights(nil)
	p.OnBatchEnd(0, nil)
	p.OnEpochEnd(0, 0.5)
}

func TestSteppedPolicyForwards(t *testing.T) {
	for _, traced := range []bool{false, true} {
		inner := &reportingPolicy{}
		var tl *traceLog
		if traced {
			tl = newTraceLog("test", 1)
		}
		p := newSteppedPolicy(inner, tl)
		p.begin()
		var _ policy.Policy = p

		if p.Name() != "plain" || !p.HasGraphIS() {
			t.Error("Name/HasGraphIS not forwarded")
		}
		if got := p.EpochOrder(0); !reflect.DeepEqual(got, []int{2, 0, 1}) {
			t.Errorf("EpochOrder = %v", got)
		}
		if got := p.Lookup(0); got != (policy.Lookup{Source: policy.SourceSubstitute, ServedID: 7}) {
			t.Errorf("Lookup = %+v", got)
		}
		if got := p.BackpropWeights(nil); !reflect.DeepEqual(got, []float64{1, 0}) {
			t.Errorf("BackpropWeights = %v", got)
		}
		inner.calls = nil
		drive(p)
		want := []string{"order", "lookup", "lookup", "miss", "weights", "batch", "epoch"}
		if !reflect.DeepEqual(inner.calls, want) {
			t.Errorf("traced=%v: inner saw %v, want %v", traced, inner.calls, want)
		}
		if len(p.steps) != 1 {
			t.Errorf("traced=%v: %d steps recorded, want 1", traced, len(p.steps))
		}

		if got := policy.ScoreStdReporter(p).ScoreStd(); got != 0.25 {
			t.Errorf("ScoreStd = %v", got)
		}
		if got := policy.RatioReporter(p).ImpRatio(); got != 0.8 {
			t.Errorf("ImpRatio = %v", got)
		}
		if s, h := policy.SearchStatsReporter(p).SearchStats(); s != 11 || h != 3 {
			t.Errorf("SearchStats = %d, %d", s, h)
		}
		if traced {
			if p.total.hitSub != 2 || p.total.miss != 1 || p.total.batches != 1 {
				t.Errorf("totals = %+v", p.total)
			}
			names := map[string]int{}
			for _, s := range tl.Spans {
				names[s.Name]++
			}
			for _, n := range []string{"epoch", "batch", "policy.Lookup", "policy.OnMiss", "policy.OnBatchEnd", "policy.OnEpochEnd", "policy.EpochOrder"} {
				if names[n] == 0 {
					t.Errorf("no %q span in %v", n, names)
				}
			}
		}
	}
}

// A policy without the reporter interfaces reads as the zeros the trainer
// records for it anyway.
func TestSteppedPolicyWithoutReporters(t *testing.T) {
	p := newSteppedPolicy(&plainPolicy{}, nil)
	if p.ScoreStd() != 0 || p.ImpRatio() != 0 {
		t.Error("absent reporters must read 0")
	}
	if s, h := p.SearchStats(); s != 0 || h != 0 {
		t.Error("absent search stats must read 0, 0")
	}
}

type fakeRemote struct {
	values map[int][]byte
	err    error
}

func (f *fakeRemote) Get(id int) ([]byte, bool, error) {
	if f.err != nil {
		return nil, false, f.err
	}
	v, ok := f.values[id]
	return v, ok, nil
}
func (f *fakeRemote) Set(id int, payload []byte) error {
	if f.err != nil {
		return f.err
	}
	f.values[id] = payload
	return nil
}

func TestCheckedRemote(t *testing.T) {
	inner := &fakeRemote{values: map[int][]byte{}}
	r := newCheckedRemote(inner, []int{3, 5}, true)
	if _, found, err := r.Get(0); found || err != nil {
		t.Fatal("empty cache must miss cleanly")
	}
	if err := r.Set(0, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(1, make([]byte, 4)); err != nil { // wrong length for id 1
		t.Fatal(err)
	}
	if v, found, _ := r.Get(0); !found || len(v) != 3 {
		t.Fatal("Get after Set must hit")
	}
	r.Get(1)
	inner.err = errors.New("down")
	if _, _, err := r.Get(0); err == nil {
		t.Fatal("errors must pass through")
	}
	if r.gets != 4 || r.hits != 2 || r.sets != 2 || r.errs != 1 || r.badLen != 1 {
		t.Errorf("gets %d hits %d sets %d errs %d badLen %d", r.gets, r.hits, r.sets, r.errs, r.badLen)
	}
	if d, n := r.takeBatch(); n != 6 || d <= 0 {
		t.Errorf("takeBatch = %v, %d", d, n)
	}
	if _, n := r.takeBatch(); n != 0 {
		t.Error("takeBatch must reset")
	}
	if len(r.getUS) != 4 {
		t.Errorf("%d Get latencies kept, want 4", len(r.getUS))
	}
}

func TestTimedSearcher(t *testing.T) {
	ix, err := hnsw.New(hnsw.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := &timedSearcher{inner: ix}
	for i := 0; i < 10; i++ {
		if err := s.Upsert(i, []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SearchKNN([]float64{3.1, 1}, 1); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("SearchKNN = %+v", got)
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d", s.Len())
	}
	sd, sn, ud, un := s.takeBatch()
	if sn != 1 || un != 10 || sd <= 0 || ud <= 0 {
		t.Errorf("takeBatch = %v %d %v %d", sd, sn, ud, un)
	}
	if _, sn, _, un := s.takeBatch(); sn != 0 || un != 0 {
		t.Error("takeBatch must report only what happened since the last take")
	}
}
