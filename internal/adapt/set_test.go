package adapt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/sparse"
)

// plainSet builds a valid sidecar without training anything: two
// front-ends, nTrain train and nHoldout holdout vectors each (nHoldout ≥ 1,
// the referee set needs one), every vector distinct.
func plainSet(nTrain, nHoldout int) *Set {
	s := &Set{
		FormatVersion: SetFormatVersion,
		Languages:     []string{"alpha", "beta", "gamma"},
		Seed:          9,
	}
	for i := 0; i < nTrain; i++ {
		s.TrainLabels = append(s.TrainLabels, i%3)
	}
	for i := 0; i < nHoldout; i++ {
		s.HoldoutLabels = append(s.HoldoutLabels, i%3)
	}
	vec := func(f, i int) *sparse.Vector {
		return &sparse.Vector{
			Idx: []int32{int32(i % 7), int32(7 + f + i%11)},
			Val: []float64{math.Sqrt(float64(i) + 0.5), -1 / float64(f+i+1)},
		}
	}
	for f := 0; f < 2; f++ {
		fe := SetFrontEnd{
			Name:          []string{"FE0", "FE1"}[f],
			Dim:           30,
			VoteShifts:    []float64{0.1, -0.2, 0.3},
			RefereeScores: [][]float64{{1, 2, 3}},
		}
		for i := 0; i < nTrain; i++ {
			fe.Train = append(fe.Train, vec(f, i))
		}
		for i := 0; i < nHoldout; i++ {
			fe.Holdout = append(fe.Holdout, vec(f, 1000+i))
		}
		s.FrontEnds = append(s.FrontEnds, fe)
	}
	return s
}

// sameVectors fails unless got matches want vector for vector, bit for bit.
func sameVectors(t *testing.T, what string, got, want []*sparse.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.Idx) != len(w.Idx) || len(g.Val) != len(w.Val) {
			t.Fatalf("%s vector %d: shape %d/%d, want %d/%d", what, i, len(g.Idx), len(g.Val), len(w.Idx), len(w.Val))
		}
		for j := range w.Idx {
			if g.Idx[j] != w.Idx[j] || math.Float64bits(g.Val[j]) != math.Float64bits(w.Val[j]) {
				t.Fatalf("%s vector %d entry %d: (%d, %v), want (%d, %v)", what, i, j, g.Idx[j], g.Val[j], w.Idx[j], w.Val[j])
			}
		}
	}
}

// TestSaveSetChunkBoundaries round-trips splits on both sides of the chunk
// size and checks the on-disk layout: a skeleton, then per front-end the
// train and holdout splits as full chunks plus one remainder chunk.
func TestSaveSetChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1} {
		holdout := max(n, 1) // an empty holdout split is invalid
		want := plainSet(n, holdout)
		dir := t.TempDir()
		if err := SaveSet(dir, want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := LoadSet(dir)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := range want.FrontEnds {
			sameVectors(t, "train", got.FrontEnds[q].Train, want.FrontEnds[q].Train)
			sameVectors(t, "holdout", got.FrontEnds[q].Holdout, want.FrontEnds[q].Holdout)
		}

		r, err := persist.Open(filepath.Join(dir, SetFile))
		if err != nil {
			t.Fatal(err)
		}
		var skel Set
		if err := r.Decode(&skel); err != nil {
			t.Fatal(err)
		}
		for q := range skel.FrontEnds {
			if skel.FrontEnds[q].Train != nil || skel.FrontEnds[q].Holdout != nil {
				t.Fatalf("n=%d: skeleton front-end %d carries vectors", n, q)
			}
		}
		for range want.FrontEnds {
			for _, total := range []int{n, holdout} {
				for done := 0; done < total; {
					var chunk []*sparse.Vector
					if err := r.Decode(&chunk); err != nil {
						t.Fatalf("n=%d: chunk at %d/%d: %v", n, done, total, err)
					}
					if len(chunk) != min(chunkSize, total-done) {
						t.Fatalf("n=%d: chunk at %d/%d holds %d vectors", n, done, total, len(chunk))
					}
					done += len(chunk)
				}
			}
		}
		var extra []*sparse.Vector
		if err := r.Decode(&extra); err == nil {
			t.Fatalf("n=%d: sidecar holds a chunk past its label counts", n)
		}
		r.Close()
	}
}

// writeRaw seals a hand-built sidecar stream: the skeleton, then chunks.
func writeRaw(t testing.TB, dir string, skel *Set, chunks ...[]*sparse.Vector) {
	t.Helper()
	w, err := persist.Create(filepath.Join(dir, SetFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Encode(skel); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// skeletonOf strips a set's vectors, as SaveSet does.
func skeletonOf(s *Set) *Set {
	skel := *s
	skel.FrontEnds = append([]SetFrontEnd(nil), s.FrontEnds...)
	for i := range skel.FrontEnds {
		skel.FrontEnds[i].Train, skel.FrontEnds[i].Holdout = nil, nil
	}
	return &skel
}

func TestLoadSetRejectsBadChunks(t *testing.T) {
	s := plainSet(3, 2)
	fe0, fe1 := s.FrontEnds[0], s.FrontEnds[1]
	cases := map[string]func(dir string){
		"empty chunk": func(dir string) {
			writeRaw(t, dir, skeletonOf(s), []*sparse.Vector{}, fe0.Train, fe0.Holdout, fe1.Train, fe1.Holdout)
		},
		"chunk overruns labels": func(dir string) {
			writeRaw(t, dir, skeletonOf(s), append(fe0.Train[:3:3], fe0.Holdout[0]), fe0.Holdout[1:],
				fe1.Train, fe1.Holdout)
		},
		"short chunk": func(dir string) {
			writeRaw(t, dir, skeletonOf(s), fe0.Train[:2], fe0.Train[2:], fe0.Holdout, fe1.Train, fe1.Holdout)
		},
		"missing chunks": func(dir string) {
			writeRaw(t, dir, skeletonOf(s), fe0.Train, fe0.Holdout)
		},
		"skeleton carries vectors": func(dir string) {
			writeRaw(t, dir, s)
		},
	}
	for name, write := range cases {
		dir := t.TempDir()
		write(dir)
		if _, err := LoadSet(dir); !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadSetRefusesV1Sidecar: a version-1 sidecar (the whole Set as one
// gob value) is refused with the re-export message, not read.
func TestLoadSetRefusesV1Sidecar(t *testing.T) {
	s := plainSet(4, 3)
	s.FormatVersion = 1
	dir := t.TempDir()
	if err := persist.Save(filepath.Join(dir, SetFile), s); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSet(dir)
	if err == nil || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("v1 sidecar: err %v, want a re-export refusal", err)
	}
}

// writeV2 writes s as a format-2 sidecar: the skeleton, then every split
// in 256-vector chunks.
func writeV2(t testing.TB, dir string, s *Set) {
	t.Helper()
	skel := skeletonOf(s)
	skel.FormatVersion = 2
	var chunks [][]*sparse.Vector
	for _, fe := range s.FrontEnds {
		for _, split := range [][]*sparse.Vector{fe.Train, fe.Holdout} {
			for len(split) > 0 {
				n := min(256, len(split))
				chunks, split = append(chunks, split[:n]), split[n:]
			}
		}
	}
	writeRaw(t, dir, skel, chunks...)
}

// TestLoadSetRefusesV2Sidecar: a format-2 sidecar is refused with the
// re-export message before any chunk is read, never as a chunk of the
// wrong size.
func TestLoadSetRefusesV2Sidecar(t *testing.T) {
	dir := t.TempDir()
	writeV2(t, dir, plainSet(chunkSize+8, 3))
	_, err := LoadSet(dir)
	if err == nil || !strings.Contains(err.Error(), "sidecar format 2 (want 3): re-export") {
		t.Fatalf("v2 sidecar: err %v, want the re-export refusal", err)
	}
}

// TestSaveSetStreamsInBoundedMemory is the memory gate: saving a sidecar
// of at least 32 MB may allocate less than a quarter of its size, so a
// save that buffers the file image (or one whole gob value) fails here.
// The 2,400-nonzero case has rows as long as HU's small-scale train rows
// (2,362 on average), so each chunk is as large as a real export's: with
// 256-vector chunks the encoder's buffer alone broke the bound.
func TestSaveSetStreamsInBoundedMemory(t *testing.T) {
	for _, c := range []struct{ nnz, nTrain, nHoldout int }{
		{100, 14000, 1000},
		{2400, 700, 300},
	} {
		t.Run(fmt.Sprintf("nnz=%d", c.nnz), func(t *testing.T) {
			v := &sparse.Vector{Idx: make([]int32, c.nnz), Val: make([]float64, c.nnz)}
			for j := range v.Idx {
				v.Idx[j] = int32(j * 200)
				v.Val[j] = math.Sqrt(float64(j) + 0.5)
			}
			// Every slot shares one vector: the encoder writes each slot
			// in full, while the test itself stays small.
			s := plainSet(0, 1)
			for i := 0; i < c.nTrain; i++ {
				s.TrainLabels = append(s.TrainLabels, i%3)
			}
			s.HoldoutLabels = s.HoldoutLabels[:0]
			for i := 0; i < c.nHoldout; i++ {
				s.HoldoutLabels = append(s.HoldoutLabels, i%3)
			}
			for q := range s.FrontEnds {
				fe := &s.FrontEnds[q]
				fe.Train, fe.Holdout = make([]*sparse.Vector, c.nTrain), make([]*sparse.Vector, c.nHoldout)
				for i := range fe.Train {
					fe.Train[i] = v
				}
				for i := range fe.Holdout {
					fe.Holdout[i] = v
				}
			}
			dir := t.TempDir()

			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := SaveSet(dir, s); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			st, err := os.Stat(filepath.Join(dir, SetFile))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() < 32<<20 {
				t.Fatalf("synthetic sidecar is %d bytes, the gate needs at least 32 MB", st.Size())
			}
			grew := after.TotalAlloc - before.TotalAlloc
			t.Logf("SaveSet of a %.1f MB sidecar allocated %.2f MB", float64(st.Size())/(1<<20), float64(grew)/(1<<20))
			if grew >= uint64(st.Size())/4 {
				t.Fatalf("SaveSet allocated %d bytes for a %d-byte sidecar (limit: a quarter of the file)", grew, st.Size())
			}
		})
	}
}
