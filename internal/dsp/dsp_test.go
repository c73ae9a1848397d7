package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSinusoid(t *testing.T) {
	// A pure tone at bin 3 of a 32-point FFT concentrates all energy there.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	FFT(x)
	for k, v := range x {
		mag := cmplx.Abs(v)
		if k == 3 || k == n-3 {
			if math.Abs(mag-float64(n)/2) > 1e-9 {
				t.Fatalf("bin %d magnitude %v, want %v", k, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", k, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := 1 << (uint(rr.Intn(7)) + 1) // 2..128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rr.Norm(), rr.Norm())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	r := rng.New(2)
	n := 64
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		v := r.Norm()
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-9*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT accepted length 12")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 200: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerSpectrumTone(t *testing.T) {
	// 200 samples of a tone at bin 10 of a 256-point FFT.
	nfft := 256
	sig := make([]float64, nfft)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 10 * float64(i) / float64(nfft))
	}
	ps := PowerSpectrum(sig, nfft)
	if len(ps) != nfft/2+1 {
		t.Fatalf("spectrum length %d", len(ps))
	}
	best := 0
	for k, v := range ps {
		if v > ps[best] {
			best = k
		}
	}
	if best != 10 {
		t.Fatalf("peak at bin %d, want 10", best)
	}
}

func TestWindows(t *testing.T) {
	h := HammingWindow(25)
	if math.Abs(h[0]-0.08) > 1e-9 || math.Abs(h[24]-0.08) > 1e-9 {
		t.Fatalf("Hamming endpoints %v %v", h[0], h[24])
	}
	if math.Abs(h[12]-1.0) > 1e-9 {
		t.Fatalf("Hamming center %v", h[12])
	}
	if HammingWindow(1)[0] != 1 {
		t.Fatal("single-point windows must be 1")
	}
}

func TestPreEmphasize(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	PreEmphasize(x, 0.97)
	if x[0] != 1 {
		t.Fatalf("first sample changed: %v", x[0])
	}
	for i := 1; i < len(x); i++ {
		if math.Abs(x[i]-0.03) > 1e-12 {
			t.Fatalf("x[%d] = %v, want 0.03", i, x[i])
		}
	}
}

func TestMelHzRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 1000, 4000} {
		back := MelToHz(HzToMel(hz))
		if math.Abs(back-hz) > 1e-6*(1+hz) {
			t.Errorf("mel round trip %v -> %v", hz, back)
		}
	}
	if HzToMel(1000) < HzToMel(500) {
		t.Error("mel scale not monotone")
	}
}

func TestMelFilterbankShape(t *testing.T) {
	fb := NewMelFilterbank(23, 256, 8000, 100, 3800)
	if fb.NumFilters != 23 {
		t.Fatalf("NumFilters = %d", fb.NumFilters)
	}
	// Each filter must be non-negative and have positive mass.
	for f, w := range fb.weights {
		var sum float64
		for _, v := range w {
			if v < 0 {
				t.Fatalf("filter %d has negative weight", f)
			}
			sum += v
		}
		if sum <= 0 {
			t.Fatalf("filter %d has zero mass", f)
		}
	}
}

func TestMelFilterbankTone(t *testing.T) {
	// Energy from a 1 kHz tone should land in the filter whose center is
	// nearest 1 kHz.
	sr := 8000.0
	nfft := 512
	sig := make([]float64, nfft)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / sr)
	}
	fb := NewMelFilterbank(20, nfft, sr, 100, 3800)
	e := fb.Energies(PowerSpectrum(sig, nfft))
	best := 0
	for f, v := range e {
		if v > e[best] {
			best = f
		}
	}
	// 1 kHz is mel 999.9; filters span mel(100)≈150 to mel(3800)≈2135, so
	// filter centers are at mel 150 + (2135-150)*(f+1)/21 — center nearest
	// 1000 mel is around f≈8. Allow ±1.
	if best < 7 || best > 9 {
		t.Fatalf("tone energy peaked in filter %d", best)
	}
}

func TestDCT2Orthonormal(t *testing.T) {
	// DCT of a constant vector: only c0 nonzero, equal to mean*sqrt(n).
	n := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = 2
	}
	c := DCT2(x, n)
	if math.Abs(c[0]-2*math.Sqrt(float64(n))) > 1e-9 {
		t.Fatalf("c0 = %v", c[0])
	}
	for k := 1; k < n; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("c%d = %v, want 0", k, c[k])
		}
	}
	// Energy preservation for full-length DCT.
	r := rng.New(3)
	y := make([]float64, n)
	var te float64
	for i := range y {
		y[i] = r.Norm()
		te += y[i] * y[i]
	}
	cy := DCT2(y, n)
	var fe float64
	for _, v := range cy {
		fe += v * v
	}
	if math.Abs(te-fe) > 1e-9*te {
		t.Fatalf("DCT not orthonormal: %v vs %v", te, fe)
	}
}

func TestAutocorrelation(t *testing.T) {
	x := []float64{1, 2, 3}
	r := Autocorrelation(x, 2)
	if r[0] != 14 || r[1] != 8 || r[2] != 3 {
		t.Fatalf("autocorrelation = %v", r)
	}
}

func TestLevinsonDurbinRecoversAR1(t *testing.T) {
	// Synthesize an AR(1) process x[t] = a·x[t−1] + e[t]; LPC(1) ≈ a.
	r := rng.New(4)
	a := 0.8
	n := 20000
	x := make([]float64, n)
	for t1 := 1; t1 < n; t1++ {
		x[t1] = a*x[t1-1] + r.Norm()
	}
	ac := Autocorrelation(x, 2)
	lpc, refl, e := LevinsonDurbin(ac, 1)
	if math.Abs(lpc[0]-a) > 0.03 {
		t.Fatalf("LPC[0] = %v, want ~%v", lpc[0], a)
	}
	if math.Abs(refl[0]-a) > 0.03 {
		t.Fatalf("reflection[0] = %v", refl[0])
	}
	if e <= 0 {
		t.Fatalf("prediction error %v", e)
	}
}

func TestLevinsonDurbinZeroSignal(t *testing.T) {
	lpc, refl, e := LevinsonDurbin([]float64{0, 0, 0}, 2)
	for i := range lpc {
		if lpc[i] != 0 || refl[i] != 0 {
			t.Fatal("zero-energy input must give zero coefficients")
		}
	}
	if e != 0 {
		t.Fatalf("error = %v", e)
	}
}

func TestLPCToCepstrum(t *testing.T) {
	c := LPCToCepstrum([]float64{0.5}, 1.0, 4)
	// c0 = ln(1) = 0; c1 = a1 = 0.5; c2 = a1²/2... for AR(1):
	// c_n = a^n / n.
	if math.Abs(c[0]) > 1e-12 {
		t.Fatalf("c0 = %v", c[0])
	}
	if math.Abs(c[1]-0.5) > 1e-12 {
		t.Fatalf("c1 = %v", c[1])
	}
	if math.Abs(c[2]-0.125) > 1e-12 {
		t.Fatalf("c2 = %v, want 0.125", c[2])
	}
	if math.Abs(c[3]-math.Pow(0.5, 3)/3) > 1e-12 {
		t.Fatalf("c3 = %v", c[3])
	}
}

func TestDeltasConstantSequence(t *testing.T) {
	frames := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	d := Deltas(frames, 2)
	for t1, f := range d {
		for j, v := range f {
			if v != 0 {
				t.Fatalf("delta of constant sequence nonzero at (%d,%d): %v", t1, j, v)
			}
		}
	}
}

func TestDeltasLinearRamp(t *testing.T) {
	// x[t] = t → delta should be 1 in the interior.
	var frames [][]float64
	for i := 0; i < 10; i++ {
		frames = append(frames, []float64{float64(i)})
	}
	d := Deltas(frames, 2)
	for t1 := 2; t1 < 8; t1++ {
		if math.Abs(d[t1][0]-1) > 1e-12 {
			t.Fatalf("interior delta = %v at %d", d[t1][0], t1)
		}
	}
}

func TestFrame(t *testing.T) {
	sig := make([]float64, 100)
	frames := Frame(sig, 25, 10)
	if len(frames) != 8 {
		t.Fatalf("frame count = %d, want 8", len(frames))
	}
	for _, f := range frames {
		if len(f) != 25 {
			t.Fatalf("frame length %d", len(f))
		}
	}
	// Frames are copies: mutating one must not affect the signal.
	frames[0][0] = 99
	if sig[0] != 0 {
		t.Fatal("Frame returned views, not copies")
	}
	if got := Frame(make([]float64, 10), 25, 10); len(got) != 0 {
		t.Fatalf("short signal produced %d frames", len(got))
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// Autocorrelation returns lags 0..maxLag of the biased autocorrelation of x.
func Autocorrelation(x []float64, maxLag int) []float64 {
	r := make([]float64, maxLag+1)
	n := len(x)
	for lag := 0; lag <= maxLag; lag++ {
		var s float64
		for i := lag; i < n; i++ {
			s += x[i] * x[i-lag]
		}
		r[lag] = s
	}
	return r
}
