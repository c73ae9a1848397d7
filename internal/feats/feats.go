// Package feats implements the acoustic feature extractors used by the
// paper's front-ends: MFCC (13 coefficients including c0, plus Δ and ΔΔ)
// and a PLP-style analysis (12 LP-cepstral coefficients plus c0, plus Δ and
// ΔΔ, i.e. 39 dimensions total), both computed every 10 ms over 25 ms
// Hamming windows, with per-utterance cepstral mean subtraction and
// variance normalization (CMVN) as described in Section 4.1.
package feats

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// Config controls framing and filterbank analysis shared by both
// extractors.
type Config struct {
	SampleRate   float64 // Hz, 8000 for telephone speech
	FrameLenMs   float64 // analysis window, 25 ms in the paper
	FrameHopMs   float64 // frame advance, 10 ms in the paper
	NumFilters   int     // mel filters (23 typical for 8 kHz)
	LowFreqHz    float64 // filterbank lower edge
	HighFreqHz   float64 // filterbank upper edge
	NumCeps      int     // cepstral coefficients including c0
	PreEmphasis  float64 // pre-emphasis coefficient
	DeltaWindow  int     // regression window for Δ features
	LPCOrder     int     // PLP path only
	CompressionP float64 // PLP intensity-loudness power (0.33)
}

// DefaultConfig returns the paper's telephone-bandwidth configuration.
func DefaultConfig() Config {
	return Config{
		SampleRate:   8000,
		FrameLenMs:   25,
		FrameHopMs:   10,
		NumFilters:   23,
		LowFreqHz:    100,
		HighFreqHz:   3800,
		NumCeps:      13,
		PreEmphasis:  0.97,
		DeltaWindow:  2,
		LPCOrder:     12,
		CompressionP: 0.33,
	}
}

func (c Config) frameLen() int { return int(c.SampleRate * c.FrameLenMs / 1000) }
func (c Config) frameHop() int { return int(c.SampleRate * c.FrameHopMs / 1000) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("feats: non-positive sample rate %v", c.SampleRate)
	}
	if c.frameLen() <= 0 || c.frameHop() <= 0 {
		return fmt.Errorf("feats: frame length/hop must be positive")
	}
	if c.NumFilters < c.NumCeps {
		return fmt.Errorf("feats: NumFilters (%d) must be >= NumCeps (%d)", c.NumFilters, c.NumCeps)
	}
	if c.HighFreqHz > c.SampleRate/2 {
		return fmt.Errorf("feats: HighFreqHz %v above Nyquist", c.HighFreqHz)
	}
	return nil
}

// Extractor computes framed cepstral features from raw samples.
type Extractor struct {
	cfg    Config
	window []float64
	fb     *dsp.MelFilterbank
	nfft   int
}

// NewExtractor builds an extractor; it panics on invalid configuration
// (configuration is programmer-supplied, not user input).
func NewExtractor(cfg Config) *Extractor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.frameLen()
	nfft := dsp.NextPow2(n)
	return &Extractor{
		cfg:    cfg,
		window: dsp.HammingWindow(n),
		fb:     dsp.NewMelFilterbank(cfg.NumFilters, nfft, cfg.SampleRate, cfg.LowFreqHz, cfg.HighFreqHz),
		nfft:   nfft,
	}
}

// MFCC returns the static 13-dimensional MFCC frames of the signal.
func (e *Extractor) MFCC(signal []float64) [][]float64 {
	sig := make([]float64, len(signal))
	copy(sig, signal)
	dsp.PreEmphasize(sig, e.cfg.PreEmphasis)
	frames := dsp.Frame(sig, e.cfg.frameLen(), e.cfg.frameHop())
	out := make([][]float64, 0, len(frames))
	for _, f := range frames {
		dsp.ApplyWindow(f, e.window)
		ps := dsp.PowerSpectrum(f, e.nfft)
		logE := e.fb.Apply(ps, 1e-10)
		out = append(out, dsp.DCT2(logE, e.cfg.NumCeps))
	}
	return out
}

// PLP returns PLP-style static frames: filterbank energies are
// cube-root compressed (intensity–loudness law), converted back to an
// autocorrelation by inverse DCT approximation, fit with an all-pole model
// of order LPCOrder, and converted to NumCeps LP-cepstra (c0 = log gain).
func (e *Extractor) PLP(signal []float64) [][]float64 {
	sig := make([]float64, len(signal))
	copy(sig, signal)
	dsp.PreEmphasize(sig, e.cfg.PreEmphasis)
	frames := dsp.Frame(sig, e.cfg.frameLen(), e.cfg.frameHop())
	out := make([][]float64, 0, len(frames))
	nf := e.cfg.NumFilters
	for _, f := range frames {
		dsp.ApplyWindow(f, e.window)
		ps := dsp.PowerSpectrum(f, e.nfft)
		energies := e.fb.Energies(ps)
		// Equal-loudness-ish emphasis and intensity-loudness compression.
		for i := range energies {
			if energies[i] < 1e-10 {
				energies[i] = 1e-10
			}
			energies[i] = math.Pow(energies[i], e.cfg.CompressionP)
		}
		// Build a symmetric "spectrum" over 2·(nf+1) points and take the
		// inverse FFT to obtain an autocorrelation sequence (standard PLP
		// trick: treat compressed filterbank as a spectral envelope).
		m := dsp.NextPow2(2 * (nf + 1))
		buf := make([]complex128, m)
		// One-sided envelope: DC, filters, Nyquist; mirror for the rest.
		buf[0] = complex(energies[0], 0)
		for i := 0; i < nf; i++ {
			buf[i+1] = complex(energies[i], 0)
		}
		for i := nf + 1; i <= m/2; i++ {
			buf[i] = complex(energies[nf-1], 0)
		}
		for i := 1; i < m/2; i++ {
			buf[m-i] = buf[i]
		}
		dsp.IFFT(buf)
		r := make([]float64, e.cfg.LPCOrder+1)
		for i := range r {
			r[i] = real(buf[i])
		}
		lpc, _, gain := dsp.LevinsonDurbin(r, e.cfg.LPCOrder)
		out = append(out, dsp.LPCToCepstrum(lpc, gain, e.cfg.NumCeps))
	}
	return out
}

// WithDeltas appends Δ and ΔΔ coefficients to each static frame, tripling
// the dimension.
func (e *Extractor) WithDeltas(static [][]float64) [][]float64 {
	d1 := dsp.Deltas(static, e.cfg.DeltaWindow)
	d2 := dsp.Deltas(d1, e.cfg.DeltaWindow)
	out := make([][]float64, len(static))
	for t := range static {
		row := make([]float64, 0, 3*len(static[t]))
		row = append(row, static[t]...)
		row = append(row, d1[t]...)
		row = append(row, d2[t]...)
		out[t] = row
	}
	return out
}

// CMVN applies per-utterance cepstral mean subtraction and variance
// normalization in place: each dimension is shifted to zero mean and scaled
// to unit variance (dimensions with zero variance are left centered).
func CMVN(frames [][]float64) {
	if len(frames) == 0 {
		return
	}
	dim := len(frames[0])
	mean := make([]float64, dim)
	for _, f := range frames {
		for j, v := range f {
			mean[j] += v
		}
	}
	n := float64(len(frames))
	for j := range mean {
		mean[j] /= n
	}
	variance := make([]float64, dim)
	for _, f := range frames {
		for j, v := range f {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}
	for _, f := range frames {
		for j := range f {
			f[j] -= mean[j]
			if variance[j] > 1e-12 {
				f[j] /= math.Sqrt(variance[j])
			}
		}
	}
}

// MFCCWithDeltasCMVN is the full paper pipeline for the DNN-HMM front-end
// input features: 13 static + Δ + ΔΔ, normalized to zero mean and unit
// variance per utterance.
func (e *Extractor) MFCCWithDeltasCMVN(signal []float64) [][]float64 {
	f := e.WithDeltas(e.MFCC(signal))
	CMVN(f)
	return f
}

// PLPWithDeltasCMVN is the 39-dimensional PLP pipeline used by the GMM-HMM
// front-ends.
func (e *Extractor) PLPWithDeltasCMVN(signal []float64) [][]float64 {
	f := e.WithDeltas(e.PLP(signal))
	CMVN(f)
	return f
}
