// Package nn implements the trainable learner that stands in for the paper's
// PyTorch models.
//
// SpiderCache only consumes two signals from the model: per-sample loss and
// the embedding produced by the feature-extraction layer. A two-hidden-layer
// MLP trained with SGD+momentum on the synthetic datasets in
// internal/dataset produces both with authentic dynamics — embeddings
// cluster by class as training progresses, losses fall, and the variance of
// importance scores rises then falls (the paper's Fig 6c) — which is all the
// caching layer depends on. GPU cost characteristics of the paper's real
// architectures (ResNet18/50, AlexNet, VGG16) are modelled separately by
// Profile.
package nn

import (
	"fmt"
	"math"

	"spidercache/internal/tensor"
	"spidercache/internal/xrand"
)

// MLPConfig describes the classifier architecture.
type MLPConfig struct {
	InputDim  int     // feature dimensionality of the dataset
	HiddenDim int     // width of the first hidden layer
	EmbedDim  int     // width of the embedding (second hidden) layer
	Classes   int     // number of output classes
	LR        float64 // SGD learning rate
	Momentum  float64 // SGD momentum coefficient
	WeightDec float64 // L2 weight decay
}

// Validate reports a descriptive error for unusable configurations.
func (c MLPConfig) Validate() error {
	switch {
	case c.InputDim <= 0:
		return fmt.Errorf("nn: InputDim must be positive, got %d", c.InputDim)
	case c.HiddenDim <= 0:
		return fmt.Errorf("nn: HiddenDim must be positive, got %d", c.HiddenDim)
	case c.EmbedDim <= 0:
		return fmt.Errorf("nn: EmbedDim must be positive, got %d", c.EmbedDim)
	case c.Classes < 2:
		return fmt.Errorf("nn: Classes must be >= 2, got %d", c.Classes)
	case c.LR <= 0:
		return fmt.Errorf("nn: LR must be positive, got %g", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("nn: Momentum must be in [0,1), got %g", c.Momentum)
	case c.WeightDec < 0:
		return fmt.Errorf("nn: WeightDec must be non-negative, got %g", c.WeightDec)
	}
	return nil
}

// linear is a fully connected layer with SGD+momentum state.
type linear struct {
	w, b   *tensor.Matrix // w: in x out, b: 1 x out
	vw, vb *tensor.Matrix // momentum buffers
}

func newLinear(in, out int, rng *xrand.Rand) *linear {
	l := &linear{
		w:  tensor.New(in, out),
		b:  tensor.New(1, out),
		vw: tensor.New(in, out),
		vb: tensor.New(1, out),
	}
	// He initialisation, appropriate for ReLU networks.
	std := math.Sqrt(2 / float64(in))
	for i := range l.w.Data {
		l.w.Data[i] = rng.NormFloat64() * std
	}
	return l
}

// forward computes x*w + b.
func (l *linear) forward(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.MatMul(x, l.w)
	out.AddRowVec(l.b.Row(0))
	return out
}

// update applies the SGD+momentum step for dOut (batch x out) on input x
// with learning rate lr and weight decay wd.
func (l *linear) update(x, dOut *tensor.Matrix, lr, mom, wd float64) {
	dW := tensor.MatMulATB(x, dOut)
	dB := dOut.ColSums()

	for i, g := range dW.Data {
		g += wd * l.w.Data[i]
		l.vw.Data[i] = mom*l.vw.Data[i] + g
		l.w.Data[i] -= lr * l.vw.Data[i]
	}
	for j, g := range dB {
		l.vb.Data[j] = mom*l.vb.Data[j] + g
		l.b.Data[j] -= lr * l.vb.Data[j]
	}
}

// MLP is a 3-layer classifier: input -> ReLU(hidden) -> ReLU(embed) -> logits.
// The second hidden activation is exposed as the per-sample embedding, the
// analogue of the paper's "feature extraction layer" output.
type MLP struct {
	cfg MLPConfig
	l1  *linear
	l2  *linear
	l3  *linear

	// forward caches for the most recent batch (consumed by Backward).
	x, h1, emb, probs *tensor.Matrix
	labels            []int
}

// NewMLP builds a classifier with deterministic He-initialised weights.
func NewMLP(cfg MLPConfig, rng *xrand.Rand) (*MLP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MLP{
		cfg: cfg,
		l1:  newLinear(cfg.InputDim, cfg.HiddenDim, rng),
		l2:  newLinear(cfg.HiddenDim, cfg.EmbedDim, rng),
		l3:  newLinear(cfg.EmbedDim, cfg.Classes, rng),
	}, nil
}

// Config returns the architecture the model was built with.
func (m *MLP) Config() MLPConfig { return m.cfg }

// SetLR changes the learning rate used by subsequent Backward calls; the
// trainer drives it with a cosine decay schedule.
func (m *MLP) SetLR(lr float64) {
	if lr > 0 {
		m.cfg.LR = lr
	}
}

// ForwardResult carries everything downstream consumers need from a forward
// pass: per-sample losses feed loss-based samplers, and embeddings feed the
// graph-based IS algorithm.
type ForwardResult struct {
	Losses     []float64   // per-sample cross-entropy
	Embeddings [][]float64 // per-sample embedding rows (copies, safe to retain)
}

// Forward runs the batch x (rows = samples) with integer labels through the
// network, caching activations for a subsequent Backward call.
func (m *MLP) Forward(x *tensor.Matrix, labels []int) ForwardResult {
	if x.Rows != len(labels) {
		panic(fmt.Sprintf("nn: batch rows %d != labels %d", x.Rows, len(labels)))
	}
	m.x = x
	m.h1 = m.l1.forward(x)
	m.h1.ReLU()
	m.emb = m.l2.forward(m.h1)
	m.emb.ReLU()
	logits := m.l3.forward(m.emb)
	logits.SoftmaxRows()
	m.probs = logits
	m.labels = labels

	emb := make([][]float64, x.Rows)
	for i := range emb {
		row := make([]float64, m.cfg.EmbedDim)
		copy(row, m.emb.Row(i))
		emb[i] = row
	}
	return ForwardResult{
		Losses:     tensor.CrossEntropyRows(m.probs, labels),
		Embeddings: emb,
	}
}

// Backward applies one SGD step using the cached forward state. weights is
// an optional per-sample loss weight (nil = uniform mean); a zero weight
// reproduces iCache's compute-bound "skip backprop for this sample"
// behaviour. Backward panics if no forward pass is cached, or if weights is
// neither nil nor one per row of the cached batch.
func (m *MLP) Backward(weights []float64) {
	if m.probs == nil {
		panic("nn: Backward called before Forward")
	}
	if weights != nil && len(weights) != m.probs.Rows {
		panic(fmt.Sprintf("nn: %d backprop weights for a batch of %d", len(weights), m.probs.Rows))
	}
	dLogits := m.probs // consumed in place
	tensor.SoftmaxCrossEntropyGrad(dLogits, m.labels, weights)

	// Each layer's input gradient dX = dOut·wᵀ is taken before its update
	// moves w. The first layer's would have nowhere to go, so it is not
	// computed.
	lr, mom, wd := m.cfg.LR, m.cfg.Momentum, m.cfg.WeightDec
	dEmb := tensor.MatMulABT(dLogits, m.l3.w)
	m.l3.update(m.emb, dLogits, lr, mom, wd)
	tensor.ReLUBackward(dEmb, m.emb)
	dH1 := tensor.MatMulABT(dEmb, m.l2.w)
	m.l2.update(m.h1, dEmb, lr, mom, wd)
	tensor.ReLUBackward(dH1, m.h1)
	m.l1.update(m.x, dH1, lr, mom, wd)

	m.probs = nil // forward state consumed
}

// Evaluate computes Top-1 accuracy and mean loss on the given set without
// touching the training caches or weights.
func (m *MLP) Evaluate(x *tensor.Matrix, labels []int) (acc, meanLoss float64) {
	h1 := m.l1.forward(x)
	h1.ReLU()
	emb := m.l2.forward(h1)
	emb.ReLU()
	logits := m.l3.forward(emb)
	logits.SoftmaxRows()
	losses := tensor.CrossEntropyRows(logits, labels)
	pred := logits.ArgmaxRows()
	var correct int
	var sum float64
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
		sum += losses[i]
	}
	n := float64(len(labels))
	return float64(correct) / n, sum / n
}
