// Package dsp implements the signal-processing primitives behind the
// acoustic front-ends: a radix-2 FFT, analysis windows, pre-emphasis, the
// mel filterbank, the DCT-II used by cepstral analysis, the Levinson–Durbin
// recursion for the PLP-style linear-prediction path, and
// delta (derivative) feature computation.
//
// The paper's front-ends consume 13-dimensional PLP (+Δ +ΔΔ) and MFCC
// features computed every 10 ms over 25 ms Hamming windows at telephone
// bandwidth; this package provides exactly those building blocks.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x, whose
// length must be a power of two.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the inverse FFT in place.
func IFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// PowerSpectrum returns the one-sided power spectrum |X[k]|² for
// k = 0..nfft/2 of the real frame, zero-padded to nfft (a power of two).
func PowerSpectrum(frame []float64, nfft int) []float64 {
	if nfft&(nfft-1) != 0 {
		panic("dsp: nfft must be a power of two")
	}
	buf := make([]complex128, nfft)
	for i, v := range frame {
		if i >= nfft {
			break
		}
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	out := make([]float64, nfft/2+1)
	for k := range out {
		re, im := real(buf[k]), imag(buf[k])
		out[k] = re*re + im*im
	}
	return out
}

// HammingWindow returns an n-point Hamming window.
func HammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// ApplyWindow multiplies frame by window element-wise in place.
func ApplyWindow(frame, window []float64) {
	if len(frame) != len(window) {
		panic("dsp: window length mismatch")
	}
	for i := range frame {
		frame[i] *= window[i]
	}
}

// PreEmphasize applies the first-order high-pass y[t] = x[t] − coef·x[t−1]
// in place (coef typically 0.97).
func PreEmphasize(x []float64, coef float64) {
	for i := len(x) - 1; i > 0; i-- {
		x[i] -= coef * x[i-1]
	}
}

// HzToMel converts frequency in Hz to mel scale (O'Shaughnessy formula).
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts mel to Hz.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank holds triangular filters over FFT bins.
type MelFilterbank struct {
	NumFilters int
	// weights[f] is a dense vector over the one-sided spectrum bins.
	weights [][]float64
}

// NewMelFilterbank constructs numFilters triangular mel-spaced filters for
// an nfft-point FFT at the given sample rate, spanning [lowHz, highHz].
func NewMelFilterbank(numFilters, nfft int, sampleRate, lowHz, highHz float64) *MelFilterbank {
	if highHz <= lowHz {
		panic("dsp: mel filterbank requires highHz > lowHz")
	}
	nBins := nfft/2 + 1
	lowMel, highMel := HzToMel(lowHz), HzToMel(highHz)
	// numFilters+2 edge points, evenly spaced in mel.
	edges := make([]float64, numFilters+2)
	for i := range edges {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numFilters+1)
		edges[i] = MelToHz(mel)
	}
	binHz := sampleRate / float64(nfft)
	fb := &MelFilterbank{NumFilters: numFilters, weights: make([][]float64, numFilters)}
	for f := 0; f < numFilters; f++ {
		w := make([]float64, nBins)
		left, center, right := edges[f], edges[f+1], edges[f+2]
		for b := 0; b < nBins; b++ {
			hz := float64(b) * binHz
			switch {
			case hz <= left || hz >= right:
				// zero
			case hz <= center:
				w[b] = (hz - left) / (center - left)
			default:
				w[b] = (right - hz) / (right - center)
			}
		}
		fb.weights[f] = w
	}
	return fb
}

// Apply returns the log filterbank energies of the one-sided power
// spectrum, flooring at logFloor to avoid −Inf.
func (fb *MelFilterbank) Apply(power []float64, logFloor float64) []float64 {
	out := make([]float64, fb.NumFilters)
	for f, w := range fb.weights {
		var e float64
		n := len(power)
		if len(w) < n {
			n = len(w)
		}
		for b := 0; b < n; b++ {
			e += w[b] * power[b]
		}
		if e < logFloor {
			e = logFloor
		}
		out[f] = math.Log(e)
	}
	return out
}

// Energies returns the linear (not log) filterbank energies; the PLP path
// applies its own compression.
func (fb *MelFilterbank) Energies(power []float64) []float64 {
	out := make([]float64, fb.NumFilters)
	for f, w := range fb.weights {
		var e float64
		n := len(power)
		if len(w) < n {
			n = len(w)
		}
		for b := 0; b < n; b++ {
			e += w[b] * power[b]
		}
		out[f] = e
	}
	return out
}

// DCT2 computes the orthonormal DCT-II of x, returning the first numCoeffs
// coefficients. This is the standard cepstral-lifter transform used after
// log filterbank energies.
func DCT2(x []float64, numCoeffs int) []float64 {
	n := len(x)
	out := make([]float64, numCoeffs)
	if n == 0 {
		return out
	}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < numCoeffs; k++ {
		var s float64
		for i, v := range x {
			s += v * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		if k == 0 {
			out[k] = s * scale0
		} else {
			out[k] = s * scale
		}
	}
	return out
}

// LevinsonDurbin solves the Toeplitz normal equations for linear prediction
// from autocorrelation r (lags 0..order). It returns the LP coefficients
// a[1..order] (with the convention x̂[t] = Σ a[k]·x[t−k]), the reflection
// coefficients, and the final prediction error. A zero-energy input yields
// zero coefficients.
func LevinsonDurbin(r []float64, order int) (lpc, reflection []float64, predErr float64) {
	if len(r) < order+1 {
		panic("dsp: autocorrelation too short for requested order")
	}
	lpc = make([]float64, order)
	reflection = make([]float64, order)
	if r[0] == 0 {
		return lpc, reflection, 0
	}
	e := r[0]
	a := make([]float64, order+1)
	for i := 1; i <= order; i++ {
		acc := r[i]
		for j := 1; j < i; j++ {
			acc -= a[j] * r[i-j]
		}
		k := acc / e
		reflection[i-1] = k
		a[i] = k
		for j := 1; j <= i/2; j++ {
			tmp := a[j] - k*a[i-j]
			a[i-j] -= k * a[j]
			a[j] = tmp
		}
		e *= 1 - k*k
		if e <= 0 {
			e = 1e-12
		}
	}
	copy(lpc, a[1:])
	return lpc, reflection, e
}

// LPCToCepstrum converts LP coefficients (prediction convention as returned
// by LevinsonDurbin) and prediction error gain into numCeps cepstral
// coefficients via the standard recursion; c[0] = ln(gain).
func LPCToCepstrum(lpc []float64, gain float64, numCeps int) []float64 {
	c := make([]float64, numCeps)
	if numCeps == 0 {
		return c
	}
	if gain <= 0 {
		gain = 1e-12
	}
	c[0] = math.Log(gain)
	p := len(lpc)
	for n := 1; n < numCeps; n++ {
		var acc float64
		if n <= p {
			acc = lpc[n-1]
		}
		for k := 1; k < n; k++ {
			if n-k <= p && n-k >= 1 {
				acc += float64(k) / float64(n) * c[k] * lpc[n-k-1]
			}
		}
		c[n] = acc
	}
	return c
}

// Deltas computes first-order regression deltas over a sequence of feature
// frames with the standard window parameter w (typically 2):
// d[t] = Σ_{k=1..w} k·(x[t+k] − x[t−k]) / (2·Σ k²), with edge replication.
func Deltas(frames [][]float64, w int) [][]float64 {
	n := len(frames)
	out := make([][]float64, n)
	if n == 0 {
		return out
	}
	dim := len(frames[0])
	var denom float64
	for k := 1; k <= w; k++ {
		denom += float64(k * k)
	}
	denom *= 2
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	for t := 0; t < n; t++ {
		d := make([]float64, dim)
		for k := 1; k <= w; k++ {
			fp := frames[clamp(t+k)]
			fm := frames[clamp(t-k)]
			for j := 0; j < dim; j++ {
				d[j] += float64(k) * (fp[j] - fm[j])
			}
		}
		for j := range d {
			d[j] /= denom
		}
		out[t] = d
	}
	return out
}

// Frame slices signal into overlapping frames of frameLen samples advancing
// by hop samples; the final partial frame is dropped. Each frame is a copy.
func Frame(signal []float64, frameLen, hop int) [][]float64 {
	if frameLen <= 0 || hop <= 0 {
		panic("dsp: Frame requires positive frameLen and hop")
	}
	var frames [][]float64
	for start := 0; start+frameLen <= len(signal); start += hop {
		f := make([]float64, frameLen)
		copy(f, signal[start:start+frameLen])
		frames = append(frames, f)
	}
	return frames
}
