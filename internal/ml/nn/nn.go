// Package nn implements the paper's sixth baseline: a three-layer, fully
// connected, sequential neural network (Table 2 grid: one activation
// function per layer from {softmax, relu, sigmoid, linear}), trained with
// mini-batch SGD + momentum on binary cross-entropy.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// Activation names a layer activation.
type Activation string

// Activations available in the Table 2 grid.
const (
	ReLU    Activation = "relu"
	Sigmoid Activation = "sigmoid"
	Linear  Activation = "linear"
	Softmax Activation = "softmax"
)

// Config defines the network shape and training schedule.
type Config struct {
	// Hidden1, Hidden2 are the hidden layer widths (defaults 64, 32).
	Hidden1, Hidden2 int
	// Act1, Act2, Act3 are the three layer activations (paper's grid).
	// The output layer has width 2 when Act3 == Softmax, else width 1.
	Act1, Act2, Act3 Activation
	// Epochs is the number of passes (default 30).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// LearningRate is the SGD step (default 0.01).
	LearningRate float64
	// Momentum is the SGD momentum (default 0.9).
	Momentum float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
}

// Net is a fitted three-layer MLP.
type Net struct {
	cfg    Config
	dims   [4]int // input, h1, h2, output
	w      [3][]float64
	b      [3][]float64
	fitted bool
}

var _ ml.Classifier = (*Net)(nil)

// New returns an unfitted network.
func New(cfg Config) *Net {
	if cfg.Hidden1 <= 0 {
		cfg.Hidden1 = 64
	}
	if cfg.Hidden2 <= 0 {
		cfg.Hidden2 = 32
	}
	if cfg.Act1 == "" {
		cfg.Act1 = ReLU
	}
	if cfg.Act2 == "" {
		cfg.Act2 = ReLU
	}
	if cfg.Act3 == "" {
		cfg.Act3 = Sigmoid
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		cfg.Momentum = 0.9
	}
	return &Net{cfg: cfg}
}

func applyAct(a Activation, v []float64) {
	switch a {
	case ReLU:
		for i := range v {
			if v[i] < 0 {
				v[i] = 0
			}
		}
	case Sigmoid:
		for i := range v {
			v[i] = sigmoid(v[i])
		}
	case Softmax:
		maxV := v[0]
		for _, x := range v {
			if x > maxV {
				maxV = x
			}
		}
		sum := 0.0
		for i := range v {
			v[i] = math.Exp(v[i] - maxV)
			sum += v[i]
		}
		for i := range v {
			v[i] /= sum
		}
	case Linear:
		// identity
	}
}

// actGrad returns dact/dz given the activated output value (for softmax we
// fold the gradient into the cross-entropy delta and return 1).
func actGrad(a Activation, out float64) float64 {
	switch a {
	case ReLU:
		if out > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return out * (1 - out)
	default:
		return 1
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// FitFrame trains the network with SGD on the listed frame rows (nil =
// all).
func (n *Net) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	x, y, err := ml.TrainingRows(fr, y, rows)
	if err != nil {
		return err
	}
	d := fr.NumCols()
	outDim := 1
	if n.cfg.Act3 == Softmax {
		outDim = 2
	}
	n.dims = [4]int{d, n.cfg.Hidden1, n.cfg.Hidden2, outDim}

	rng := rand.New(rand.NewSource(n.cfg.Seed))
	for l := 0; l < 3; l++ {
		in, out := n.dims[l], n.dims[l+1]
		n.w[l] = make([]float64, in*out)
		n.b[l] = make([]float64, out)
		scale := math.Sqrt(2 / float64(in)) // He init
		for i := range n.w[l] {
			n.w[l][i] = rng.NormFloat64() * scale
		}
	}

	vw := [3][]float64{}
	vb := [3][]float64{}
	for l := 0; l < 3; l++ {
		vw[l] = make([]float64, len(n.w[l]))
		vb[l] = make([]float64, len(n.b[l]))
	}

	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}

	acts := [4][]float64{nil, make([]float64, n.dims[1]), make([]float64, n.dims[2]), make([]float64, n.dims[3])}
	deltas := [3][]float64{make([]float64, n.dims[1]), make([]float64, n.dims[2]), make([]float64, n.dims[3])}

	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for bs := 0; bs < len(order); bs += n.cfg.BatchSize {
			be := bs + n.cfg.BatchSize
			if be > len(order) {
				be = len(order)
			}
			// Accumulate gradients over the batch (stored in velocity via
			// momentum update at batch end).
			gw := [3][]float64{}
			gb := [3][]float64{}
			for l := 0; l < 3; l++ {
				gw[l] = make([]float64, len(n.w[l]))
				gb[l] = make([]float64, len(n.b[l]))
			}
			for _, i := range order[bs:be] {
				acts[0] = x[i]
				n.forward(acts[:])
				n.backward(acts[:], deltas[:], y[i], gw[:], gb[:])
			}
			lr := n.cfg.LearningRate / float64(be-bs)
			for l := 0; l < 3; l++ {
				for k := range n.w[l] {
					vw[l][k] = n.cfg.Momentum*vw[l][k] - lr*gw[l][k]
					n.w[l][k] += vw[l][k]
				}
				for k := range n.b[l] {
					vb[l][k] = n.cfg.Momentum*vb[l][k] - lr*gb[l][k]
					n.b[l][k] += vb[l][k]
				}
			}
		}
	}
	n.fitted = true
	return nil
}

// forward fills acts[1..3] from acts[0].
func (n *Net) forward(acts [][]float64) {
	activations := [3]Activation{n.cfg.Act1, n.cfg.Act2, n.cfg.Act3}
	for l := 0; l < 3; l++ {
		in, out := n.dims[l], n.dims[l+1]
		src, dst := acts[l], acts[l+1]
		for o := 0; o < out; o++ {
			s := n.b[l][o]
			wrow := n.w[l][o*in : (o+1)*in]
			for j, v := range src {
				s += wrow[j] * v
			}
			dst[o] = s
		}
		applyAct(activations[l], dst)
	}
}

// backward accumulates cross-entropy gradients into gw/gb.
func (n *Net) backward(acts, deltas [][]float64, label int, gw, gb [][]float64) {
	activations := [3]Activation{n.cfg.Act1, n.cfg.Act2, n.cfg.Act3}
	out := acts[3]
	dOut := deltas[2]
	switch n.cfg.Act3 {
	case Softmax:
		for o := range out {
			target := 0.0
			if o == label {
				target = 1
			}
			dOut[o] = out[o] - target
		}
	case Sigmoid:
		// Cross-entropy + sigmoid collapses to (p − y).
		dOut[0] = out[0] - float64(label)
	default:
		// Linear/ReLU output trained as logits through an implicit sigmoid.
		p := sigmoid(out[0])
		dOut[0] = (p - float64(label)) * actGrad(activations[2], out[0])
	}

	for l := 2; l >= 0; l-- {
		in := n.dims[l]
		delta := deltas[l]
		src := acts[l]
		for o := range delta {
			gb[l][o] += delta[o]
			wrow := gw[l][o*in : (o+1)*in]
			for j, v := range src {
				wrow[j] += delta[o] * v
			}
		}
		if l == 0 {
			break
		}
		prev := deltas[l-1]
		for j := range prev {
			s := 0.0
			for o := range delta {
				s += n.w[l][o*in+j] * delta[o]
			}
			prev[j] = s * actGrad(activations[l-1], acts[l][j])
		}
	}
}

// PredictProba returns P(y=1 | x).
func (n *Net) PredictProba(x []float64) float64 {
	if !n.fitted {
		return 0.5
	}
	if len(x) != n.dims[0] {
		panic(fmt.Sprintf("nn: input has %d features, model expects %d", len(x), n.dims[0]))
	}
	acts := [4][]float64{x, make([]float64, n.dims[1]), make([]float64, n.dims[2]), make([]float64, n.dims[3])}
	n.forward(acts[:])
	out := acts[3]
	switch n.cfg.Act3 {
	case Softmax:
		return out[1]
	case Sigmoid:
		return out[0]
	default:
		return sigmoid(out[0])
	}
}

// Predict thresholds the probability at 0.5.
func (n *Net) Predict(x []float64) int {
	if n.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}
