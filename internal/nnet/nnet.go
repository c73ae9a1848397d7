// Package nnet implements the feed-forward networks behind the hybrid
// front-ends: the shallow ANN of the BUT-style TRAPs ANN-HMM recognizers
// and the deeper DNN of the Tsinghua DNN-HMM recognizer. Networks have
// sigmoid hidden layers and a softmax output trained with cross-entropy
// via mini-batch SGD with momentum; the learning-rate schedule follows the
// paper's "halve when dev frame accuracy decreases" rule ("newbob").
package nnet

import (
	"math"

	"repro/internal/rng"
)

// MLP is a feed-forward network with sigmoid hidden layers and a softmax
// output layer.
type MLP struct {
	// Sizes is the layer widths: input, hidden..., output.
	Sizes []int
	// W[l] is a Sizes[l+1]×Sizes[l] weight matrix (row-major); B[l] the
	// biases of layer l+1.
	W [][]float64
	B [][]float64
	// Momentum buffers.
	vW [][]float64
	vB [][]float64
}

// New builds an MLP with the given layer sizes; weights are initialized
// with the scaled uniform scheme (±√(6/(fanIn+fanOut))).
func New(r *rng.RNG, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nnet: need at least input and output layers")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		limit := math.Sqrt(6.0 / float64(in+out))
		for i := range w {
			w[i] = (2*r.Float64() - 1) * limit
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
		m.vW = append(m.vW, make([]float64, in*out))
		m.vB = append(m.vB, make([]float64, out))
	}
	return m
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// forward computes all layer activations; acts[0] is the input, the last
// entry is the softmax output.
func (m *MLP) forward(x []float64, acts [][]float64) {
	copy(acts[0], x)
	for l := 0; l < len(m.W); l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		prev, cur := acts[l], acts[l+1]
		w, b := m.W[l], m.B[l]
		for j := 0; j < out; j++ {
			s := b[j]
			row := w[j*in : (j+1)*in]
			for i, v := range prev {
				s += row[i] * v
			}
			cur[j] = s
		}
		if l < len(m.W)-1 {
			for j := range cur {
				cur[j] = sigmoid(cur[j])
			}
		} else {
			softmaxInPlace(cur)
		}
	}
}

func softmaxInPlace(z []float64) {
	maxv := math.Inf(-1)
	for _, v := range z {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range z {
		z[j] = math.Exp(v - maxv)
		sum += z[j]
	}
	for j := range z {
		z[j] /= sum
	}
}

// newActs allocates activation buffers for one example.
func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.Sizes))
	for i, s := range m.Sizes {
		acts[i] = make([]float64, s)
	}
	return acts
}

// Predict returns the softmax output probabilities for x.
func (m *MLP) Predict(x []float64) []float64 {
	acts := m.newActs()
	m.forward(x, acts)
	out := make([]float64, m.Sizes[len(m.Sizes)-1])
	copy(out, acts[len(acts)-1])
	return out
}

// LogPredict returns log posteriors (floored to avoid −Inf).
func (m *MLP) LogPredict(x []float64) []float64 {
	p := m.Predict(x)
	for i := range p {
		if p[i] < 1e-30 {
			p[i] = 1e-30
		}
		p[i] = math.Log(p[i])
	}
	return p
}

// Classify returns the argmax class for x.
func (m *MLP) Classify(x []float64) int {
	p := m.Predict(x)
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}

// TrainConfig controls SGD.
type TrainConfig struct {
	LearnRate    float64 // initial rate (paper: 0.2 at fine-tuning)
	Momentum     float64
	BatchSize    int
	Epochs       int
	HalveOnDecay bool // halve rate when dev accuracy decreases (paper rule)
	L2           float64
}

// DefaultTrainConfig mirrors the paper's fine-tuning setup at toy scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		LearnRate:    0.2,
		Momentum:     0.5,
		BatchSize:    32,
		Epochs:       10,
		HalveOnDecay: true,
	}
}

// Train runs mini-batch SGD with cross-entropy loss. dev may be nil; when
// present and HalveOnDecay is set, the learning rate halves whenever dev
// frame accuracy drops between epochs (the paper's schedule). Returns the
// final dev accuracy (or train accuracy if dev is nil).
func (m *MLP) Train(r *rng.RNG, x [][]float64, y []int, devX [][]float64, devY []int, cfg TrainConfig) float64 {
	if len(x) != len(y) {
		panic("nnet: x/y length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	acts := m.newActs()
	deltas := make([][]float64, len(m.Sizes))
	for i, s := range m.Sizes {
		deltas[i] = make([]float64, s)
	}
	gW := make([][]float64, len(m.W))
	gB := make([][]float64, len(m.B))
	for l := range m.W {
		gW[l] = make([]float64, len(m.W[l]))
		gB[l] = make([]float64, len(m.B[l]))
	}

	rate := cfg.LearnRate
	lastDevAcc := -1.0
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for l := range gW {
				zero(gW[l])
				zero(gB[l])
			}
			for _, idx := range order[start:end] {
				m.forward(x[idx], acts)
				m.backward(x[idx], y[idx], acts, deltas, gW, gB)
			}
			scale := 1 / float64(end-start)
			for l := range m.W {
				vw, w, gw := m.vW[l], m.W[l], gW[l]
				for i := range w {
					vw[i] = cfg.Momentum*vw[i] - rate*(gw[i]*scale+cfg.L2*w[i])
					w[i] += vw[i]
				}
				vb, b, gb := m.vB[l], m.B[l], gB[l]
				for i := range b {
					vb[i] = cfg.Momentum*vb[i] - rate*gb[i]*scale
					b[i] += vb[i]
				}
			}
		}
		if devX != nil && cfg.HalveOnDecay {
			acc := m.Accuracy(devX, devY)
			if lastDevAcc >= 0 && acc < lastDevAcc {
				rate /= 2
			}
			lastDevAcc = acc
		}
	}
	if devX != nil {
		return m.Accuracy(devX, devY)
	}
	return m.Accuracy(x, y)
}

// backward accumulates gradients for one example into gW/gB. acts must
// hold the forward pass of x.
func (m *MLP) backward(x []float64, label int, acts, deltas [][]float64, gW, gB [][]float64) {
	lout := len(m.Sizes) - 1
	out := acts[lout]
	d := deltas[lout]
	// Softmax + cross-entropy gradient: p − onehot.
	for j := range d {
		d[j] = out[j]
		if j == label {
			d[j] -= 1
		}
	}
	for l := len(m.W) - 1; l >= 0; l-- {
		in := m.Sizes[l]
		prev := acts[l]
		dcur := deltas[l+1]
		gw, gb := gW[l], gB[l]
		for j, dj := range dcur {
			if dj == 0 {
				continue
			}
			row := gw[j*in : (j+1)*in]
			for i, v := range prev {
				row[i] += dj * v
			}
			gb[j] += dj
		}
		if l > 0 {
			dprev := deltas[l]
			w := m.W[l]
			for i := 0; i < in; i++ {
				var s float64
				for j, dj := range dcur {
					s += w[j*in+i] * dj
				}
				// Sigmoid derivative.
				a := prev[i]
				dprev[i] = s * a * (1 - a)
			}
		}
	}
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Accuracy returns the fraction of examples classified correctly.
func (m *MLP) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i := range x {
		if m.Classify(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// Pretrain performs the greedy layer-wise pre-training pass the paper
// applies before fine-tuning (its DBN pre-training), approximated as
// denoising-autoencoder pre-training per hidden layer: each hidden layer is
// trained to reconstruct its (noise-corrupted) input through a transient
// decoder. Only hidden layers are pre-trained; the softmax layer is left
// at its random initialization for fine-tuning.
func (m *MLP) Pretrain(r *rng.RNG, x [][]float64, epochs int, rate, noiseStd float64) {
	if len(x) == 0 {
		return
	}
	// Current representation of the data as we move up the stack.
	rep := make([][]float64, len(x))
	for i := range x {
		rep[i] = append([]float64(nil), x[i]...)
	}
	for l := 0; l < len(m.W)-1; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		// Transient decoder.
		dec := make([]float64, in*out)
		decB := make([]float64, in)
		limit := math.Sqrt(6.0 / float64(in+out))
		for i := range dec {
			dec[i] = (2*r.Float64() - 1) * limit
		}
		h := make([]float64, out)
		recon := make([]float64, in)
		dH := make([]float64, out)
		for e := 0; e < epochs; e++ {
			for _, v := range rep {
				// Corrupt.
				noisy := make([]float64, in)
				for i := range noisy {
					noisy[i] = v[i] + noiseStd*r.Norm()
				}
				// Encode.
				w, b := m.W[l], m.B[l]
				for j := 0; j < out; j++ {
					s := b[j]
					row := w[j*in : (j+1)*in]
					for i, vi := range noisy {
						s += row[i] * vi
					}
					h[j] = sigmoid(s)
				}
				// Decode (linear).
				for i := 0; i < in; i++ {
					s := decB[i]
					for j := 0; j < out; j++ {
						s += dec[i*out+j] * h[j]
					}
					recon[i] = s
				}
				// Squared-error gradients.
				for j := 0; j < out; j++ {
					dH[j] = 0
				}
				for i := 0; i < in; i++ {
					diff := recon[i] - v[i]
					for j := 0; j < out; j++ {
						dH[j] += diff * dec[i*out+j]
						dec[i*out+j] -= rate * diff * h[j]
					}
					decB[i] -= rate * diff
				}
				w, b = m.W[l], m.B[l]
				for j := 0; j < out; j++ {
					g := dH[j] * h[j] * (1 - h[j])
					row := w[j*in : (j+1)*in]
					for i, vi := range noisy {
						row[i] -= rate * g * vi
					}
					b[j] -= rate * g
				}
			}
		}
		// Propagate representation through the trained layer.
		next := make([][]float64, len(rep))
		for i, v := range rep {
			nh := make([]float64, out)
			w, b := m.W[l], m.B[l]
			for j := 0; j < out; j++ {
				s := b[j]
				row := w[j*in : (j+1)*in]
				for k, vk := range v {
					s += row[k] * vk
				}
				nh[j] = sigmoid(s)
			}
			next[i] = nh
		}
		rep = next
	}
}
