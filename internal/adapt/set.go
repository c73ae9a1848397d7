package adapt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/persist"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// SetFile is the sidecar file `lre -export-models` writes next to the
// bundle. It freezes everything self-training needs that a serving
// process cannot reconstruct from live traffic: the original training
// supervectors (DBA-M2 appends the selected utterances to them), a
// holdout split with labels (the EER gate), per-front-end vote
// calibration shifts (Eq. 13 on raw one-vs-rest scores almost never
// fires — the 1-vs-22 imbalance biases them negative), and the pinned
// referee scores the canary gate checks candidates against.
const SetFile = "adapt.gob"

// SetFormatVersion versions the sidecar layout. Version 3 streams the
// vectors in chunks of chunkSize after a vector-free skeleton (see
// SaveSet). Older sidecars are refused — re-export: version 1 held
// everything in one gob value, version 2 used 256-vector chunks.
const SetFormatVersion = 3

// chunkSize is how many vectors one sidecar chunk carries. Each chunk is
// one gob message, which encoding/gob buffers whole, so it bounds what
// saving or loading a sidecar holds in flight beyond the Set itself: 32
// rows of ≈2,400 nonzeros (HU's train rows at small scale) are ≈1 MB,
// where 256 made a ≈6 MB message that raised the offline job's peak.
const chunkSize = 32

// ErrNoSet marks a bundle directory exported without an adapt sidecar —
// such bundles serve normally but cannot self-train.
var ErrNoSet = errors.New("adapt: bundle has no adapt sidecar (re-export with a current lre)")

// Set is the decoded sidecar.
type Set struct {
	FormatVersion int
	// Languages mirrors the bundle's language list (cross-checked at
	// adapter construction).
	Languages []string
	// SVM carries the export-time solver options, so candidate training
	// uses exactly the hyperparameters the base models were trained with.
	SVM svm.Options
	// Seed is the export pipeline's seed, kept for reference: candidate
	// seeds derive from SVM.Seed, per front-end, in dba.Retrain.
	Seed uint64
	// TrainLabels pairs with every front-end's Train vectors.
	TrainLabels []int
	// HoldoutLabels pairs with every front-end's Holdout vectors.
	HoldoutLabels []int
	// FrontEnds aligns with the bundle's front-end order.
	FrontEnds []SetFrontEnd
}

// SetFrontEnd is one front-end's frozen adaptation data, all vectors in
// that front-end's scoring weight space (TFLLR-scaled, projected if the
// bundle projects) — exactly what FrontEndModel.ScoresInto consumes.
type SetFrontEnd struct {
	Name string
	// Dim is the weight-space dimensionality (must equal the bundle
	// front-end's WeightDim).
	Dim int
	// Train are the original training supervectors (DBA-M2's Tr).
	Train []*sparse.Vector
	// Holdout are the frozen holdout supervectors the EER gate scores.
	Holdout []*sparse.Vector
	// VoteShifts are the per-language vote-calibration thresholds
	// (subtracted from a served score row before the Eq. 13 criterion),
	// computed on dev at export time like the offline pipeline's vote
	// calibration.
	VoteShifts []float64
	// RefereeScores pins the export-time model's score rows for the
	// first len(RefereeScores) holdout vectors — the frozen referee set.
	// The canary gate bounds a candidate's drift against these.
	RefereeScores [][]float64
}

// NumReferee returns the referee-set size (identical across front-ends,
// enforced by Validate).
func (s *Set) NumReferee() int {
	if len(s.FrontEnds) == 0 {
		return 0
	}
	return len(s.FrontEnds[0].RefereeScores)
}

// Validate checks the internal consistency the trainer and gates rely
// on.
func (s *Set) Validate() error {
	if err := s.checkFormat(); err != nil {
		return err
	}
	if len(s.Languages) == 0 {
		return fmt.Errorf("adapt: sidecar lists no languages")
	}
	if len(s.FrontEnds) == 0 {
		return fmt.Errorf("adapt: sidecar has no front-ends")
	}
	k := len(s.Languages)
	nRef := len(s.FrontEnds[0].RefereeScores)
	for i := range s.FrontEnds {
		fe := &s.FrontEnds[i]
		if fe.Name == "" {
			return fmt.Errorf("adapt: sidecar front-end %d has no name", i)
		}
		if fe.Dim <= 0 {
			return fmt.Errorf("adapt: front-end %q has dimension %d", fe.Name, fe.Dim)
		}
		if len(fe.Train) != len(s.TrainLabels) {
			return fmt.Errorf("adapt: front-end %q has %d train vectors for %d labels",
				fe.Name, len(fe.Train), len(s.TrainLabels))
		}
		if len(fe.Holdout) != len(s.HoldoutLabels) {
			return fmt.Errorf("adapt: front-end %q has %d holdout vectors for %d labels",
				fe.Name, len(fe.Holdout), len(s.HoldoutLabels))
		}
		if len(fe.VoteShifts) != 0 && len(fe.VoteShifts) != k {
			return fmt.Errorf("adapt: front-end %q has %d vote shifts for %d languages",
				fe.Name, len(fe.VoteShifts), k)
		}
		if len(fe.RefereeScores) != nRef {
			return fmt.Errorf("adapt: front-end %q pins %d referee rows, front-end %q pins %d",
				fe.Name, len(fe.RefereeScores), s.FrontEnds[0].Name, nRef)
		}
		if nRef > len(fe.Holdout) {
			return fmt.Errorf("adapt: front-end %q pins %d referee rows but has %d holdout vectors",
				fe.Name, nRef, len(fe.Holdout))
		}
		for j, row := range fe.RefereeScores {
			if len(row) != k {
				return fmt.Errorf("adapt: front-end %q referee row %d scores %d languages (want %d)",
					fe.Name, j, len(row), k)
			}
		}
	}
	if nRef == 0 {
		return fmt.Errorf("adapt: sidecar has an empty referee set")
	}
	if len(s.HoldoutLabels) == 0 {
		return fmt.Errorf("adapt: sidecar has an empty holdout split")
	}
	return nil
}

// checkFormat refuses every sidecar layout but the current one.
func (s *Set) checkFormat() error {
	if s.FormatVersion != SetFormatVersion {
		return fmt.Errorf("adapt: sidecar format %d (want %d): re-export the bundle with a current lre",
			s.FormatVersion, SetFormatVersion)
	}
	return nil
}

// SaveSet writes the sidecar into a bundle directory (sealed, atomic).
// The layout streams: first the Set with every front-end's Train and
// Holdout left nil (the skeleton), then, front-end by front-end, its
// train vectors and its holdout vectors as chunks of chunkSize, one gob
// message each (the last chunk of a split holds the remainder; an empty
// split has none). The label counts in the skeleton say how many vectors
// follow, so the file needs no other framing.
func SaveSet(dir string, s *Set) error {
	if err := s.Validate(); err != nil {
		return err
	}
	skel := *s
	skel.FrontEnds = make([]SetFrontEnd, len(s.FrontEnds))
	for i, fe := range s.FrontEnds {
		fe.Train, fe.Holdout = nil, nil
		skel.FrontEnds[i] = fe
	}
	w, err := persist.Create(filepath.Join(dir, SetFile))
	if err != nil {
		return err
	}
	if err := w.Encode(&skel); err != nil {
		return err
	}
	for i := range s.FrontEnds {
		for _, split := range [][]*sparse.Vector{s.FrontEnds[i].Train, s.FrontEnds[i].Holdout} {
			for len(split) > 0 {
				n := min(chunkSize, len(split))
				if err := w.Encode(split[:n]); err != nil {
					return err
				}
				split = split[n:]
			}
		}
	}
	return w.Close()
}

// LoadSet reads and validates a bundle directory's sidecar. A missing
// file returns ErrNoSet.
func LoadSet(dir string) (*Set, error) {
	path := filepath.Join(dir, SetFile)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, ErrNoSet
	}
	r, err := persist.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adapt: sidecar: %w", err)
	}
	defer r.Close()
	var s Set
	if err := r.Decode(&s); err != nil {
		return nil, fmt.Errorf("adapt: sidecar: %w", err)
	}
	if err := s.checkFormat(); err != nil {
		return nil, err
	}
	for i := range s.FrontEnds {
		fe := &s.FrontEnds[i]
		if fe.Train != nil || fe.Holdout != nil {
			return nil, fmt.Errorf("adapt: sidecar skeleton carries front-end %q's vectors (%w)", fe.Name, persist.ErrCorrupt)
		}
		if fe.Train, err = readSplit(r, len(s.TrainLabels)); err != nil {
			return nil, fmt.Errorf("adapt: sidecar front-end %q train: %w", fe.Name, err)
		}
		if fe.Holdout, err = readSplit(r, len(s.HoldoutLabels)); err != nil {
			return nil, fmt.Errorf("adapt: sidecar front-end %q holdout: %w", fe.Name, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// readSplit reads the chunks of one n-vector split. Every chunk must hold
// exactly min(chunkSize, vectors still due): an empty chunk, or one that
// overruns the label count, is corruption.
func readSplit(r *persist.Reader, n int) ([]*sparse.Vector, error) {
	var out []*sparse.Vector
	for len(out) < n {
		var chunk []*sparse.Vector
		if err := r.Decode(&chunk); err != nil {
			return nil, err
		}
		if want := min(chunkSize, n-len(out)); len(chunk) != want {
			return nil, fmt.Errorf("chunk of %d vectors at %d/%d, want %d (%w)",
				len(chunk), len(out), n, want, persist.ErrCorrupt)
		}
		out = append(out, chunk...)
	}
	return out, nil
}
