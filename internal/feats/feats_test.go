package feats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func testSignal(seconds float64, freq float64) []float64 {
	sr := 8000.0
	n := int(seconds * sr)
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = 0.5 * math.Sin(2*math.Pi*freq*float64(i)/sr)
	}
	return sig
}

func noisySignal(r *rng.RNG, seconds float64) []float64 {
	n := int(seconds * 8000)
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = 0.3 * r.Norm()
	}
	return sig
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.HighFreqHz = 9000
	if bad.Validate() == nil {
		t.Error("accepted HighFreqHz above Nyquist")
	}
	bad2 := good
	bad2.NumFilters = 5
	if bad2.Validate() == nil {
		t.Error("accepted NumFilters < NumCeps")
	}
	bad3 := good
	bad3.SampleRate = 0
	if bad3.Validate() == nil {
		t.Error("accepted zero sample rate")
	}
}

func TestMFCCFrameCountAndDim(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	sig := testSignal(1.0, 440) // 1 second
	frames := e.MFCC(sig)
	// (8000 - 200)/80 + 1 = 98 full frames.
	if len(frames) != 98 {
		t.Fatalf("frame count = %d, want 98", len(frames))
	}
	for _, f := range frames {
		if len(f) != 13 {
			t.Fatalf("MFCC dim = %d", len(f))
		}
	}
}

func TestMFCCDistinguishesSpectra(t *testing.T) {
	// Frames of a 300 Hz tone and a 2500 Hz tone must have clearly
	// different cepstra.
	e := NewExtractor(DefaultConfig())
	a := e.MFCC(testSignal(0.5, 300))
	b := e.MFCC(testSignal(0.5, 2500))
	var dist float64
	for j := 1; j < 13; j++ { // skip c0 (energy, equal here)
		d := a[10][j] - b[10][j]
		dist += d * d
	}
	if math.Sqrt(dist) < 1.0 {
		t.Fatalf("MFCC distance between distinct tones too small: %v", math.Sqrt(dist))
	}
}

func TestMFCCStableAcrossFrames(t *testing.T) {
	// A stationary tone should give near-identical interior frames.
	e := NewExtractor(DefaultConfig())
	fr := e.MFCC(testSignal(0.5, 800))
	for j := 0; j < 13; j++ {
		if math.Abs(fr[10][j]-fr[30][j]) > 1e-6 {
			t.Fatalf("stationary signal cepstra differ at coeff %d: %v vs %v", j, fr[10][j], fr[30][j])
		}
	}
}

func TestPLPFrames(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	fr := e.PLP(testSignal(0.3, 600))
	if len(fr) == 0 {
		t.Fatal("no PLP frames")
	}
	for _, f := range fr {
		if len(f) != 13 {
			t.Fatalf("PLP dim = %d", len(f))
		}
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("PLP coeff %d not finite: %v", j, v)
			}
		}
	}
}

func TestPLPDistinguishesSpectra(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	a := e.PLP(testSignal(0.3, 300))
	b := e.PLP(testSignal(0.3, 2500))
	var dist float64
	for j := 1; j < 13; j++ {
		d := a[5][j] - b[5][j]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.1 {
		t.Fatalf("PLP distance too small: %v", math.Sqrt(dist))
	}
}

func TestWithDeltasDimension(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	fr := e.WithDeltas(e.MFCC(testSignal(0.3, 500)))
	for _, f := range fr {
		if len(f) != 39 {
			t.Fatalf("full dim = %d, want 39", len(f))
		}
	}
}

func TestCMVN(t *testing.T) {
	r := rng.New(1)
	e := NewExtractor(DefaultConfig())
	fr := e.MFCCWithDeltasCMVN(noisySignal(r, 1.0))
	dim := len(fr[0])
	n := float64(len(fr))
	for j := 0; j < dim; j++ {
		var mean, varAcc float64
		for _, f := range fr {
			mean += f[j]
		}
		mean /= n
		for _, f := range fr {
			d := f[j] - mean
			varAcc += d * d
		}
		varAcc /= n
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("dim %d mean after CMVN = %v", j, mean)
		}
		if math.Abs(varAcc-1) > 1e-6 && varAcc > 1e-12 {
			t.Fatalf("dim %d variance after CMVN = %v", j, varAcc)
		}
	}
}

func TestCMVNEmptyAndConstant(t *testing.T) {
	CMVN(nil) // must not panic
	frames := [][]float64{{5, 5}, {5, 5}}
	CMVN(frames)
	for _, f := range frames {
		for _, v := range f {
			if v != 0 {
				t.Fatalf("constant dim not centered: %v", v)
			}
		}
	}
}

func TestShortSignal(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	if got := e.MFCC(make([]float64, 50)); len(got) != 0 {
		t.Fatalf("sub-frame signal yielded %d frames", len(got))
	}
}
