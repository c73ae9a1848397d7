package svm

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Quantized is the compressed scoring kernel: the one-vs-rest
// weights quantized symmetrically per class into a column-blocked
// (feature-major) block,
//
//	W[c][j] ≈ Scale[c] × (W8[j*K+c] − Zero[c]),
//
// stored as []byte (gob encodes byte slices at one byte per element,
// which is the entire point — float64 weights cost ~9). Quantize always
// produces Zero[c] = 0 (symmetric quantization), but the wire format
// carries the zero points so the dequant epilogue is the full
// scale/zero-point affine and decoders validate rather than assume.
//
// Unlike OneVsRest, a Quantized carries no float64 weights at all: a
// compressed bundle ships only this, and scoring dequantizes on the fly
// in the epilogue.
type Quantized struct {
	NumClasses int
	// Dim is the weight-space dimensionality (the projection rank for
	// compressed bundles).
	Dim int
	// W8 is the column-blocked int8 weight matrix, byte-encoded:
	// int8(W8[j*NumClasses+c]) is class c's quantized weight for feature j.
	W8 []byte
	// Scale[c] is class c's dequantization step (max|W[c]|/127 at
	// quantization time); Zero[c] its zero point in quantized units.
	Scale []float64
	Zero  []float64
	Bias  []float64
}

// Quantize builds the int8 form of the one-vs-rest weights. Fails on
// heterogeneous or empty model sets and on non-finite weights.
func (o *OneVsRest) Quantize() (*Quantized, error) {
	dim, ok := o.weightDim()
	if !ok {
		return nil, fmt.Errorf("svm: quantize: models are heterogeneous or missing, nothing to quantize")
	}
	K := o.NumClasses
	q := &Quantized{
		NumClasses: K,
		Dim:        dim,
		W8:         make([]byte, dim*K),
		Scale:      make([]float64, K),
		Zero:       make([]float64, K),
		Bias:       make([]float64, K),
	}
	for c, m := range o.Models {
		q.Bias[c] = m.Bias
		var maxAbs float64
		for j, w := range m.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("svm: quantize: class %d weight %d is not finite", c, j)
			}
			if a := math.Abs(w); a > maxAbs {
				maxAbs = a
			}
		}
		s := maxAbs / 127
		if s == 0 {
			s = 1 // all-zero class: any scale dequantizes 0 to 0
		}
		q.Scale[c] = s
		for j, w := range m.W {
			q.W8[j*K+c] = byte(int8(math.RoundToEven(w / s)))
		}
	}
	return q, nil
}

// Validate checks the invariants the scoring kernel relies on. It is the
// backstop behind untrusted gob decodes (see the persist fuzz targets):
// truncated weight blocks, NaN/Inf scales, and out-of-range zero points
// must all fail here, never panic in ScoresInto.
func (q *Quantized) Validate() error {
	if q.NumClasses <= 0 {
		return fmt.Errorf("svm: quantized kernel has %d classes", q.NumClasses)
	}
	if q.Dim <= 0 {
		return fmt.Errorf("svm: quantized kernel has dimension %d", q.Dim)
	}
	if len(q.W8) != q.Dim*q.NumClasses {
		return fmt.Errorf("svm: quantized kernel holds %d weights, want %d×%d", len(q.W8), q.Dim, q.NumClasses)
	}
	if len(q.Scale) != q.NumClasses || len(q.Zero) != q.NumClasses || len(q.Bias) != q.NumClasses {
		return fmt.Errorf("svm: quantized kernel scale/zero/bias lengths %d/%d/%d, want %d",
			len(q.Scale), len(q.Zero), len(q.Bias), q.NumClasses)
	}
	for c := 0; c < q.NumClasses; c++ {
		if s := q.Scale[c]; math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return fmt.Errorf("svm: quantized kernel class %d has scale %v", c, s)
		}
		if z := q.Zero[c]; math.IsNaN(z) || math.Abs(z) > 127 {
			return fmt.Errorf("svm: quantized kernel class %d zero point %v overflows int8", c, z)
		}
		if b := q.Bias[c]; math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("svm: quantized kernel class %d has bias %v", c, b)
		}
	}
	return nil
}

// ScoresInto writes the dequantized decision values for x into out
// (length NumClasses) and returns it. The loop accumulates raw int8
// products in float64 and applies the affine dequantization once per
// class:
//
//	score[c] = Scale[c]×(Σⱼ xⱼ·q[c][j] − Zero[c]·Σⱼ xⱼ) + Bias[c]
//
// which equals scoring against the dequantized weights exactly up to
// float64 reassociation of the scale multiply. Allocation-free when out
// is provided (gated by BenchmarkQuantizedScoresIntoAllocs).
func (q *Quantized) ScoresInto(x *sparse.Vector, out []float64) []float64 {
	K := q.NumClasses
	for c := range out {
		out[c] = 0
	}
	var sumX float64
	val := x.Val[:len(x.Idx)]
	for k, i := range x.Idx {
		j := int(i)
		if j >= q.Dim {
			break
		}
		xv := val[k]
		sumX += xv
		row := q.W8[j*K : j*K+K]
		for c, w := range row {
			out[c] += xv * float64(int8(w))
		}
	}
	for c := range out {
		out[c] = q.Scale[c]*(out[c]-q.Zero[c]*sumX) + q.Bias[c]
	}
	return out
}

// Scores returns the dequantized decision values for x.
func (q *Quantized) Scores(x *sparse.Vector) []float64 {
	return q.ScoresInto(x, make([]float64, q.NumClasses))
}

// Dequantize reconstructs the float64 one-vs-rest models the kernel
// approximates — the oracle the order-preservation referee scores
// against.
func (q *Quantized) Dequantize() *OneVsRest {
	o := &OneVsRest{NumClasses: q.NumClasses, Models: make([]*Model, q.NumClasses)}
	for c := 0; c < q.NumClasses; c++ {
		w := make([]float64, q.Dim)
		for j := 0; j < q.Dim; j++ {
			w[j] = q.Scale[c] * (float64(int8(q.W8[j*q.NumClasses+c])) - q.Zero[c])
		}
		o.Models[c] = &Model{W: w, Bias: q.Bias[c]}
	}
	return o
}

// Bytes reports the in-memory footprint of the quantized kernel.
func (q *Quantized) Bytes() int {
	return len(q.W8) + 8*(len(q.Scale)+len(q.Zero)+len(q.Bias))
}
