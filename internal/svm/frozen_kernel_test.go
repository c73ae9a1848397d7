package svm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// Frozen referees: the feature-major packed scoring kernel and the
// packed-reading Quantize that the class-grouped kernel replaced, copied
// verbatim onto a stand-alone type (only the receiver changed). The
// grouped kernel and the row-major Quantize must reproduce them bit for
// bit; they panic on a negative index, so callers hand them rows cut at
// the first index outside [0, dim).
type frozenPacked struct {
	NumClasses int
	Models     []*Model

	packOnce   sync.Once
	packed     []float64
	packedBias []float64
	packedDim  int
	packOK     bool
}

func newFrozenPacked(o *OneVsRest) *frozenPacked {
	return &frozenPacked{NumClasses: o.NumClasses, Models: o.Models}
}

func (o *frozenPacked) pack() {
	if len(o.Models) == 0 {
		return
	}
	dim := -1
	for _, m := range o.Models {
		if m == nil {
			return
		}
		if dim == -1 {
			dim = len(m.W)
		} else if len(m.W) != dim {
			return
		}
	}
	K := len(o.Models)
	packed := make([]float64, dim*K)
	bias := make([]float64, K)
	for c, m := range o.Models {
		bias[c] = m.Bias
		for j, w := range m.W {
			packed[j*K+c] = w
		}
	}
	o.packed, o.packedBias, o.packedDim, o.packOK = packed, bias, dim, true
}

func (o *frozenPacked) ScoresInto(x *sparse.Vector, out []float64) []float64 {
	o.packOnce.Do(o.pack)
	if !o.packOK {
		for k, m := range o.Models {
			out[k] = m.Score(x)
		}
		return out
	}
	K := o.NumClasses
	for c := range out {
		out[c] = 0
	}
	val := x.Val[:len(x.Idx)]
	for k, i := range x.Idx {
		j := int(i)
		if j >= o.packedDim {
			break
		}
		xv := val[k]
		row := o.packed[j*K : j*K+K]
		for c, w := range row {
			out[c] += xv * w
		}
	}
	for c := range out {
		out[c] += o.packedBias[c]
	}
	return out
}

func (o *frozenPacked) Quantize() (*Quantized, error) {
	o.packOnce.Do(o.pack)
	if !o.packOK {
		return nil, fmt.Errorf("svm: quantize: models are heterogeneous or missing, nothing to pack")
	}
	K, dim := o.NumClasses, o.packedDim
	q := &Quantized{
		NumClasses: K,
		Dim:        dim,
		W8:         make([]byte, dim*K),
		Scale:      make([]float64, K),
		Zero:       make([]float64, K),
		Bias:       append([]float64(nil), o.packedBias...),
	}
	for c := 0; c < K; c++ {
		var maxAbs float64
		for j := 0; j < dim; j++ {
			w := o.packed[j*K+c]
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
		for j := 0; j < dim; j++ {
			q.W8[j*K+c] = byte(int8(math.RoundToEven(o.packed[j*K+c] / s)))
		}
	}
	return q, nil
}
