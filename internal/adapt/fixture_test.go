package adapt

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dba"
	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// Test fixture: a tiny synthetic bundle + adapt sidecar (2 front-ends
// over a 5-phone order-2 space, 3 languages) that trains in
// milliseconds. Vectors are generated directly in the scoring weight
// space (TFLLR-scaled), matching what lre's export writes.

const (
	tfPhones  = 5
	tfOrder   = 2
	tfLangs   = 3
	tfTrain   = 60
	tfHoldout = 30
	tfReferee = 12
)

// synthVector draws one weight-space vector of language k.
func synthVector(r *rng.RNG, dim, k, f int) *sparse.Vector {
	m := map[int32]float64{
		int32(k * 7):               2 + 0.3*r.Norm(),
		int32((k*7 + f + 1) % dim): 1 + 0.2*r.Norm(),
		int32(r.Intn(dim)):         0.5 * r.Float64(),
	}
	return sparse.FromMap(m)
}

// buildFixture constructs a matched (bundle, sidecar) pair.
func buildFixture(seed uint64) (*persist.Bundle, *Set) {
	space := ngram.NewSpace(tfPhones, tfOrder)
	dim := space.Dim()
	r := rng.New(seed)
	opt := svm.DefaultOptions()
	opt.Seed = seed

	b := &persist.Bundle{Languages: []string{"alpha", "beta", "gamma"}}
	set := &Set{
		FormatVersion: SetFormatVersion,
		Languages:     []string{"alpha", "beta", "gamma"},
		SVM:           opt,
		Seed:          seed,
	}
	for i := 0; i < tfTrain; i++ {
		set.TrainLabels = append(set.TrainLabels, i%tfLangs)
	}
	for i := 0; i < tfHoldout; i++ {
		set.HoldoutLabels = append(set.HoldoutLabels, i%tfLangs)
	}

	data := make([]*dba.SubsystemData, 2)
	for f := range data {
		d := &dba.SubsystemData{Name: fmt.Sprintf("FE%d", f), Dim: dim}
		for i := 0; i < tfTrain; i++ {
			d.Train = append(d.Train, synthVector(r, dim, i%tfLangs, f))
		}
		for i := 0; i < tfHoldout; i++ {
			d.Test = append(d.Test, synthVector(r, dim, i%tfLangs, f))
		}
		data[f] = d
	}
	// An empty DBA-M2 selection retrains on the frozen set alone, so a
	// candidate trained on the unmodified frozen set reproduces these
	// weights.
	var dev [][][]float64
	for f, ovr := range dba.Retrain(data, set.TrainLabels, nil, dba.M2, tfLangs, opt) {
		d := data[f]
		b.FrontEnds = append(b.FrontEnds, persist.FrontEndModel{
			Name:      d.Name,
			NumPhones: tfPhones,
			Order:     tfOrder,
			OVR:       ovr,
		})
		set.FrontEnds = append(set.FrontEnds, SetFrontEnd{
			Name:    d.Name,
			Dim:     dim,
			Train:   d.Train,
			Holdout: d.Test,
		})
		rows := make([][]float64, len(d.Train))
		for i, v := range d.Train {
			rows[i] = ovr.Scores(v)
		}
		dev = append(dev, rows)
	}

	x, y := fusion.Trials(dev, nil, set.TrainLabels, nil)
	bk, err := fusion.Train(x, y, 2, fusion.DefaultConfig())
	if err != nil {
		panic(err)
	}
	b.Fusion = bk

	// Pin the referee scores from the freshly trained battery.
	for q := range set.FrontEnds {
		sfe := &set.FrontEnds[q]
		for j := 0; j < tfReferee; j++ {
			sfe.RefereeScores = append(sfe.RefereeScores, b.FrontEnds[q].Scores(sfe.Holdout[j]))
		}
	}
	return b, set
}

// writeFixture exports the fixture as a generation-0 bundle root.
func writeFixture(t testing.TB, dir string, seed uint64) (*persist.Bundle, *Set) {
	t.Helper()
	b, set := buildFixture(seed)
	if err := SaveSet(dir, set); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: seed, Scale: "test", AdaptFile: SetFile}); err != nil {
		t.Fatal(err)
	}
	return b, set
}

// host simulates the serving process side of the adapter contract: Swap
// re-resolves the root (like the registry reloader), Current returns the
// live bundle.
type host struct {
	t     testing.TB
	dir   string
	cur   *persist.Bundle
	swaps int
	fail  error // non-nil: Swap refuses (breaker-open simulation)
}

func newHost(t testing.TB, dir string) *host {
	b, _, _, err := persist.ResolveBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &host{t: t, dir: dir, cur: b}
}

func (h *host) swap() error {
	if h.fail != nil {
		return h.fail
	}
	b, _, _, err := persist.ResolveBundle(h.dir)
	if err != nil {
		return err
	}
	h.cur = b
	h.swaps++
	return nil
}

func (h *host) current() *persist.Bundle { return h.cur }

// newTestAdapter builds an adapter over an exported fixture root with a
// permissive gate policy (tests tighten individual knobs per case).
func newTestAdapter(t testing.TB, dir string, mutate func(*Policy)) (*Adapter, *host) {
	t.Helper()
	pol := DefaultPolicy()
	pol.MinUtts = 1
	pol.Votes = 1
	pol.ShadowRate = 1
	pol.ShadowBound = 1e9
	pol.EERBudget = 100
	pol.CanaryTol = 1e9
	if mutate != nil {
		mutate(&pol)
	}
	h := newHost(t, dir)
	a, err := New(Config{
		Dir:     dir,
		Policy:  pol,
		Swap:    h.swap,
		Current: h.current,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, h
}

// feed offers n full-battery observations built from the sidecar's
// holdout vectors, with forged served rows voting for label(j) — forged
// rows make Eq. 13 selection deterministic regardless of calibration.
func feed(a *Adapter, set *Set, n int, label func(j int) int) {
	for j := 0; j < n && j < len(set.HoldoutLabels); j++ {
		vectors := make(map[int]*sparse.Vector, len(set.FrontEnds))
		scores := make(map[int][]float64, len(set.FrontEnds))
		k := label(j)
		for q := range set.FrontEnds {
			vectors[q] = set.FrontEnds[q].Holdout[j]
			// Small margins: unambiguous for Eq. 13 voting (one positive,
			// rest negative) without saturating the fused decision — the
			// shadow gate needs served-vs-candidate divergence to be
			// measurable, not flushed to exactly 0/1.
			row := make([]float64, tfLangs)
			for i := range row {
				row[i] = -0.25
			}
			row[k] = 0.25
			scores[q] = row
		}
		a.Observe(vectors, scores)
	}
}

// rootDigest hashes the base bundle files — the serving artifact that
// chaos must leave bit-identical.
func rootDigest(t testing.TB, dir string) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, name := range []string{"bundle.gob", "manifest.json", SetFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
