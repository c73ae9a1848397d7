package vsm

import (
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

func tinyCorpus() *corpus.Corpus {
	cfg := corpus.TinyConfig()
	cfg.TrainPerLang = 4
	cfg.DevPerLang = 2
	cfg.TestPerLang = 2
	return corpus.Build(cfg)
}

// mustExtract runs ExtractChecked and fails the test on its error.
func mustExtract(t *testing.T, fe *frontend.FrontEnd, c *corpus.Corpus, opt ExtractOptions) *Features {
	t.Helper()
	f, err := ExtractChecked(fe, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExtractCoversAllSplits(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	splits := []*corpus.Split{c.Train, c.AllDev(), c.AllTest()}
	for _, s := range splits {
		vecs := f.Vectors(s)
		if len(vecs) != s.Len() {
			t.Fatalf("%s: %d vectors for %d items", s.Name, len(vecs), s.Len())
		}
		for i, v := range vecs {
			if v == nil || v.NNZ() == 0 {
				t.Fatalf("%s item %d has empty supervector", s.Name, i)
			}
			if err := v.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.Dim() != fe.Space.Dim() {
		t.Fatal("Dim mismatch")
	}
	if f.TF == nil {
		t.Fatal("TFLLR not estimated")
	}
}

func TestExtractDeterministic(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	a := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	b := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	it := c.Train.Items[0]
	va, vb := a.Vector(it.ID), b.Vector(it.ID)
	if va.NNZ() != vb.NNZ() {
		t.Fatal("extraction not deterministic")
	}
	for k := range va.Idx {
		if va.Idx[k] != vb.Idx[k] || va.Val[k] != vb.Val[k] {
			t.Fatal("extraction not deterministic")
		}
	}
}

func TestExtractTFLLRChangesScaling(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	with := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	without := mustExtract(t, fe, c, ExtractOptions{Seed: 7, DisableTFLLR: true})
	if without.TF != nil {
		t.Fatal("TF estimated despite DisableTFLLR")
	}
	it := c.Train.Items[0]
	vw, vr := with.Vector(it.ID), without.Vector(it.ID)
	diff := false
	for k := range vw.Val {
		if vw.Val[k] != vr.Val[k] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("TFLLR scaling had no effect")
	}
}

func TestVectorPanicsOnUnknownID(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("Vector accepted unknown ID")
		}
	}()
	f.Vector(99999999)
}

func TestTrainSubsystemAndScoreMatrix(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	trainX := f.Vectors(c.Train)
	ovr := svm.TrainOVR(trainX, c.Train.Labels(), 23, f.Dim(), DefaultSVMOptions())
	if ovr.NumClasses != 23 {
		t.Fatalf("NumClasses = %d", ovr.NumClasses)
	}
	testX := f.Vectors(c.Test[30])
	mat := ovr.ScoreAll(testX)
	if len(mat) != len(testX) || len(mat[0]) != 23 {
		t.Fatal("score matrix shape wrong")
	}
	// Training accuracy should be far above 1/23 chance.
	if acc := ovr.Accuracy(trainX, c.Train.Labels()); acc < 0.5 {
		t.Fatalf("training accuracy %v", acc)
	}
}

func TestScoreMatrixMatchesDirectScores(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	ovr := svm.TrainOVR(f.Vectors(c.Train), c.Train.Labels(), 23, f.Dim(), DefaultSVMOptions())
	xs := []*sparse.Vector{f.Vectors(c.Test[10])[0]}
	mat := ovr.ScoreAll(xs)
	direct := ovr.Scores(xs[0])
	for k := range direct {
		if mat[0][k] != direct[k] {
			t.Fatal("ScoreAll disagrees with direct scoring")
		}
	}
}

// TestKeptBestPathMatchesSecondDecode pins what KeepBestPath promises: the
// kept string is the 1-best of the lattice a fresh Decode builds from the
// utterance's extraction stream, and only the asked-for cache keeps one.
func TestKeptBestPathMatchesSecondDecode(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7, KeepBestPath: true})
	root := rng.New(7).SplitString("extract:" + fe.Name)
	for _, s := range []*corpus.Split{c.Train, c.AllDev(), c.AllTest()} {
		for i, got := range f.BestPaths(s) {
			it := s.Items[i]
			want, _ := fe.Decode(root.Split(uint64(it.ID)), it.U).BestPath()
			if !slices.Equal(got, want) || len(want) == 0 {
				t.Fatalf("%s item %d: kept %v, a second decode gives %v", s.Name, it.ID, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s item %d: kept path has cap %d for %d phones", s.Name, it.ID, cap(got), len(got))
			}
		}
	}
	if plain := mustExtract(t, fe, c, ExtractOptions{Seed: 7}); len(plain.Snapshot().BestPaths) != 0 {
		t.Fatal("extraction kept 1-best paths it was not asked for")
	}
}

// TestSnapshotCarriesBestPaths round-trips kept paths through a snapshot
// and refuses a snapshot whose paths do not line up with its rows.
func TestSnapshotCarriesBestPaths(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7, KeepBestPath: true})
	snap := f.Snapshot()
	if len(snap.BestPaths) != len(snap.IDs) {
		t.Fatalf("snapshot carries %d paths for %d IDs", len(snap.BestPaths), len(snap.IDs))
	}
	r, err := RestoreFeatures(fe, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*corpus.Split{c.Train, c.AllDev(), c.AllTest()} {
		want, got := f.BestPaths(s), r.BestPaths(s)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s item %d: restored path differs", s.Name, s.Items[i].ID)
			}
		}
	}

	snap.BestPaths = snap.BestPaths[1:]
	if _, err := RestoreFeatures(fe, snap); err == nil {
		t.Fatal("snapshot with one path missing restored")
	}
	snap.BestPaths = nil
	r, err = RestoreFeatures(fe, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot().BestPaths) != 0 {
		t.Fatal("a snapshot without paths restored some")
	}
}
