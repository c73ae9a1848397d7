// Package frontend implements the paper's six parallel phone recognizers:
//
//	ANN-HMM  Hungarian (59 phones), Russian (50), Czech (43)   [BUT TRAPs]
//	DNN-HMM  English (47)                                      [Tsinghua]
//	GMM-HMM  English (47), Mandarin (64)                       [Tsinghua]
//
// Each front-end decodes an utterance into a phone lattice over its own
// inventory. Two decoder implementations share this contract:
//
//   - The simulated decoder used by the large experiment sweeps: it maps
//     the utterance's universal phones onto the front-end inventory and
//     applies a model-family- and channel-dependent error process
//     (substitutions biased toward in-class confusions, insertions,
//     deletions), emitting a confusion-network lattice with posteriors.
//     Channel-dependent degradation is the train/test mismatch that DBA
//     exploits: VOA broadcast test audio decodes worse than the CTS data
//     the recognizers were "trained" on, exactly as in LRE09.
//
//   - The acoustic decoder (acoustic.go) runs the full path — waveform
//     synthesis, MFCC/PLP extraction, GMM-HMM or MLP-HMM decoding,
//     confusion generation — and is used by integration tests, the
//     acousticpath example, and the Table 5 real-time-factor benches.
package frontend

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/lattice"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/phones"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

// Decode-work counters shared by the simulated and acoustic decoders:
// utterances decoded and lattice arcs emitted (the size of the decoding
// output that the supervector stage consumes).
var (
	obsDecodedUtts = obs.GetCounter("decode.utterances")
	obsLatticeArcs = obs.GetCounter("decode.lattice_arcs")
)

// Kind is the acoustic model family of a front-end.
type Kind int

// Acoustic model families, ordered roughly by recognition quality in the
// paper's era: GMM < ANN < DNN.
const (
	GMMHMM Kind = iota
	ANNHMM
	DNNHMM
)

func (k Kind) String() string {
	switch k {
	case GMMHMM:
		return "GMM-HMM"
	case ANNHMM:
		return "ANN-HMM"
	case DNNHMM:
		return "DNN-HMM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FrontEnd is one simulated phone recognizer.
type FrontEnd struct {
	Name string
	Kind Kind
	Set  *phones.Set
	// Space indexes this front-end's N-gram supervectors.
	Space *ngram.Space

	// BaseAccuracy is the top-1 phone accuracy on matched (CTS-clean)
	// audio.
	BaseAccuracy float64
	// ChannelPenalty[ch] is subtracted from the accuracy for utterances
	// recorded in that condition.
	ChannelPenalty map[synthlang.Channel]float64
	// InsertionRate and DeletionRate are per-segment probabilities.
	InsertionRate, DeletionRate float64
	// TopK is the lattice depth (alternatives per slot).
	TopK int

	// confusion[ch][p] lists in-class confusion candidates for front-end
	// phone p with seeded weights. The weights depend on the recording
	// condition: a broadcast channel does not merely decode worse, it
	// confuses *differently* (different spectral tilt shifts which phones
	// collide), which is what makes train/test mismatch a distribution
	// shift rather than plain noise — the effect DBA adapts to.
	confusion [synthlang.NumChannels][]confusionSet
	seed      uint64
}

// confusionSet holds one (channel, phone) pair's candidates and their
// weights as parallel slices, so a draw hands weights straight to
// rng.Categorical without copying them.
type confusionSet struct {
	phones  []int
	weights []float64
}

// NgramOrder is the supervector order used throughout the reproduction
// (unigram + bigram; the paper's systems typically use up to trigram, but
// bigram keeps the 23-language sweeps tractable while preserving every
// qualitative result — see DESIGN.md).
const NgramOrder = 2

// New builds a simulated front-end. The seed individualizes its phone-set
// partition and confusion structure: two front-ends with different seeds
// make different errors, which is the complementarity the paper's parallel
// architecture (and DBA's voting) relies on.
func New(name string, kind Kind, inventorySize int, seed uint64) *FrontEnd {
	return NewWithOrder(name, kind, inventorySize, seed, NgramOrder)
}

// NewWithOrder is New with an explicit supervector N-gram order (the
// paper's systems go up to trigram; the trigram-vs-bigram ablation bench
// uses this).
func NewWithOrder(name string, kind Kind, inventorySize int, seed uint64, order int) *FrontEnd {
	set := phones.NewSet(name, inventorySize, seed)
	f := &FrontEnd{
		Name:  name,
		Kind:  kind,
		Set:   set,
		Space: ngram.NewSpace(set.Size, order),
		ChannelPenalty: map[synthlang.Channel]float64{
			synthlang.ChannelCTSClean: 0,
			synthlang.ChannelCTSNoisy: 0.04,
			synthlang.ChannelVOA:      0.13,
		},
		InsertionRate: 0.02,
		DeletionRate:  0.03,
		TopK:          4,
		seed:          seed,
	}
	switch kind {
	case DNNHMM:
		f.BaseAccuracy = 0.86
	case ANNHMM:
		f.BaseAccuracy = 0.81
	case GMMHMM:
		f.BaseAccuracy = 0.77
	}
	f.buildConfusion()
	return f
}

// StandardSix returns the paper's front-end battery.
func StandardSix(seed uint64) []*FrontEnd {
	return []*FrontEnd{
		New("HU", ANNHMM, 59, seed+101),
		New("RU", ANNHMM, 50, seed+202),
		New("CZ", ANNHMM, 43, seed+303),
		New("EN-DNN", DNNHMM, 47, seed+404),
		New("MA", GMMHMM, 64, seed+505),
		New("EN-GMM", GMMHMM, 47, seed+606),
	}
}

// channelConfusionBlend is how far each channel's confusion weights drift
// from the clean-channel structure (0 = identical, 1 = independent).
var channelConfusionBlend = [synthlang.NumChannels]float64{
	synthlang.ChannelCTSClean: 0,
	synthlang.ChannelCTSNoisy: 0.25,
	synthlang.ChannelVOA:      0.8,
}

// buildConfusion derives per-channel, per-phone confusion candidates:
// same-class phones with weights drawn from seeded Dirichlets, so each
// front-end confuses differently, and each recording condition perturbs
// the confusion structure away from the clean one.
func (f *FrontEnd) buildConfusion() {
	n := f.Set.Size
	candsFor := func(p int) []int {
		var cands []int
		for q := 0; q < n; q++ {
			if q != p && f.Set.ClassOf[q] == f.Set.ClassOf[p] {
				cands = append(cands, q)
			}
		}
		if len(cands) == 0 {
			for q := 0; q < n; q++ {
				if q != p {
					cands = append(cands, q)
				}
			}
		}
		return cands
	}
	for ch := synthlang.Channel(0); ch < synthlang.NumChannels; ch++ {
		rBase := rng.New(f.seed ^ 0xc0f5)
		rCh := rng.New(f.seed ^ 0xc0f5 ^ (0x9e37 * uint64(ch+1)))
		blend := channelConfusionBlend[ch]
		f.confusion[ch] = make([]confusionSet, n)
		for p := 0; p < n; p++ {
			cands := candsFor(p)
			base := make([]float64, len(cands))
			rBase.Dirichlet(0.8, base)
			chw := make([]float64, len(cands))
			rCh.Dirichlet(0.8, chw)
			weights := make([]float64, len(cands))
			for i := range cands {
				weights[i] = (1-blend)*base[i] + blend*chw[i]
			}
			f.confusion[ch][p] = confusionSet{phones: cands, weights: weights}
		}
	}
}

// accuracy returns the top-1 accuracy for a channel condition.
func (f *FrontEnd) accuracy(ch synthlang.Channel) float64 {
	a := f.BaseAccuracy - f.ChannelPenalty[ch]
	if a < 0.1 {
		a = 0.1
	}
	return a
}

// drawConfusion samples a confusion for front-end phone p under a
// recording condition.
func (f *FrontEnd) drawConfusion(r *rng.RNG, p int, ch synthlang.Channel) int {
	c := &f.confusion[ch][p]
	return c.phones[r.Categorical(c.weights)]
}

// Decode runs the simulated recognizer on an utterance, producing a
// confusion-network phone lattice over the front-end's inventory. The
// caller provides the randomness stream; deriving it from (corpus seed,
// utterance id, front-end name) makes decoding deterministic and
// cacheable.
func (f *FrontEnd) Decode(r *rng.RNG, u *synthlang.Utterance) *lattice.Lattice {
	// Chaos hook: Decode has no error path, so injected faults surface as
	// panics or stalls here — the isolation layers in callers (worker
	// pools, the serve scoring pass) are what the chaos suite exercises.
	faultinject.Disturb("frontend.decode")
	l := lattice.FromSausage(f.decodeSlots(r, u))
	obsDecodedUtts.Inc()
	obsLatticeArcs.Add(int64(l.NumEdges()))
	return l
}

// DecodeChecked is Decode with an error path: the decoded confusion
// network goes through lattice.ParseSausage (the validating builder), so
// a corrupt decode — an injected fault at the frontend.decode or
// lattice.sausage site, or a genuinely malformed sausage — comes back as
// an error the offline pipeline can quarantine per-utterance instead of
// aborting the whole extraction phase. The randomness consumed is
// identical to Decode's, and a clean decode yields the identical lattice.
func (f *FrontEnd) DecodeChecked(r *rng.RNG, u *synthlang.Utterance) (*lattice.Lattice, error) {
	if err := faultinject.At("frontend.decode"); err != nil {
		return nil, err
	}
	l, err := lattice.ParseSausage(f.decodeSlots(r, u), f.Set.Size)
	if err != nil {
		return nil, err
	}
	obsDecodedUtts.Inc()
	obsLatticeArcs.Add(int64(l.NumEdges()))
	return l, nil
}

// decodeSlots runs the simulated error process and emits the confusion
// network slots; Decode and DecodeChecked share it so both consume the
// caller's randomness stream identically. Every segment emits at most two
// slots of at most TopK alternatives, so the slot list and each slot are
// allocated once at full size, and one Dirichlet scratch serves every
// slot.
func (f *FrontEnd) decodeSlots(r *rng.RNG, u *synthlang.Utterance) []lattice.SausageSlot {
	acc := f.accuracy(u.Channel)
	slots := make([]lattice.SausageSlot, 0, 2*len(u.Segments))
	k := f.TopK - 1
	w := make([]float64, max(k, 0))
	emit := func(truePhone int) {
		correct := r.Bernoulli(acc)
		// Top-hypothesis posterior: decoders are better calibrated when
		// right than when wrong.
		var top float64
		if correct {
			top = clamp(r.NormMuSigma(0.78, 0.10), 0.40, 0.98)
		} else {
			top = clamp(r.NormMuSigma(0.55, 0.12), 0.30, 0.90)
		}
		topPhone := truePhone
		if !correct {
			topPhone = f.drawConfusion(r, truePhone, u.Channel)
		}
		slot := make(lattice.SausageSlot, 1, 1+len(w))
		slot[0].Phone, slot[0].Prob = topPhone, top
		// Remaining mass over confusion alternatives (and, when the top is
		// wrong, the true phone competes among them).
		rest := 1 - top
		if k > 0 {
			r.Dirichlet(1.0, w)
			for i := 0; i < k; i++ {
				var alt int
				if !correct && i == 0 {
					alt = truePhone // true phone usually survives in the lattice
				} else {
					alt = f.drawConfusion(r, truePhone, u.Channel)
				}
				// The slot holds every phone used so far (at most TopK).
				if slotHas(slot, alt) {
					continue
				}
				slot = append(slot, struct {
					Phone int
					Prob  float64
				}{Phone: alt, Prob: rest * w[i]})
			}
		}
		slots = append(slots, slot)
	}

	for _, seg := range u.Segments {
		fePhone := f.Set.Map(seg.Phone)
		if r.Bernoulli(f.DeletionRate) {
			continue
		}
		emit(fePhone)
		if r.Bernoulli(f.InsertionRate) {
			// Spurious segment: a confusion of the current phone.
			emit(f.drawConfusion(r, fePhone, u.Channel))
		}
	}
	if len(slots) == 0 {
		// Degenerate ultra-short utterance: emit one slot so downstream
		// code always has a lattice.
		fePhone := f.Set.Map(u.Segments[0].Phone)
		slots = append(slots, lattice.SausageSlot{{Phone: fePhone, Prob: 1}})
	}
	return slots
}

// slotHas reports whether phone already labels an alternative of slot.
func slotHas(slot lattice.SausageSlot, phone int) bool {
	for _, a := range slot {
		if a.Phone == phone {
			return true
		}
	}
	return false
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
