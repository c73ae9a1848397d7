package frontend

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lattice"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

// This file freezes the simulated decoder as it stood before the
// allocation-free rewrite — confusion candidates as (phone, weight) pairs,
// a weight copy on every draw, and a map deduplicating each slot — as the
// referee the live decodeSlots must match bit for bit.

type frozenConfusand struct {
	phone  int
	weight float64
}

// frozenBuildConfusion is the old buildConfusion, returning the table
// instead of storing it.
func frozenBuildConfusion(f *FrontEnd) [synthlang.NumChannels][][]frozenConfusand {
	var confusion [synthlang.NumChannels][][]frozenConfusand
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
		confusion[ch] = make([][]frozenConfusand, n)
		for p := 0; p < n; p++ {
			cands := candsFor(p)
			base := make([]float64, len(cands))
			rBase.Dirichlet(0.8, base)
			chw := make([]float64, len(cands))
			rCh.Dirichlet(0.8, chw)
			list := make([]frozenConfusand, len(cands))
			for i, q := range cands {
				list[i] = frozenConfusand{
					phone:  q,
					weight: (1-blend)*base[i] + blend*chw[i],
				}
			}
			confusion[ch][p] = list
		}
	}
	return confusion
}

// frozenDecoder pairs a front-end with its frozen confusion table.
type frozenDecoder struct {
	f         *FrontEnd
	confusion [synthlang.NumChannels][][]frozenConfusand
}

func (d *frozenDecoder) drawConfusion(r *rng.RNG, p int, ch synthlang.Channel) int {
	list := d.confusion[ch][p]
	w := make([]float64, len(list))
	for i, c := range list {
		w[i] = c.weight
	}
	return list[r.Categorical(w)].phone
}

func (d *frozenDecoder) decodeSlots(r *rng.RNG, u *synthlang.Utterance) []lattice.SausageSlot {
	f := d.f
	acc := f.accuracy(u.Channel)
	var slots []lattice.SausageSlot
	emit := func(truePhone int) {
		correct := r.Bernoulli(acc)
		var top float64
		if correct {
			top = clamp(r.NormMuSigma(0.78, 0.10), 0.40, 0.98)
		} else {
			top = clamp(r.NormMuSigma(0.55, 0.12), 0.30, 0.90)
		}
		topPhone := truePhone
		if !correct {
			topPhone = d.drawConfusion(r, truePhone, u.Channel)
		}
		slot := lattice.SausageSlot{{Phone: topPhone, Prob: top}}
		rest := 1 - top
		k := f.TopK - 1
		if k > 0 {
			w := make([]float64, k)
			r.Dirichlet(1.0, w)
			used := map[int]bool{topPhone: true}
			for i := 0; i < k; i++ {
				var alt int
				if !correct && i == 0 {
					alt = truePhone
				} else {
					alt = d.drawConfusion(r, truePhone, u.Channel)
				}
				if used[alt] {
					continue
				}
				used[alt] = true
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
			emit(d.drawConfusion(r, fePhone, u.Channel))
		}
	}
	if len(slots) == 0 {
		fePhone := f.Set.Map(u.Segments[0].Phone)
		slots = append(slots, lattice.SausageSlot{{Phone: fePhone, Prob: 1}})
	}
	return slots
}

// refereeUtterances picks n utterances spread evenly over every split of
// the tiny corpus, so all three duration tiers are covered.
func refereeUtterances(t *testing.T, n int) []*synthlang.Utterance {
	t.Helper()
	c := corpus.Build(corpus.TinyConfig())
	var all []*synthlang.Utterance
	for _, s := range []*corpus.Split{c.Train, c.AllDev(), c.AllTest()} {
		for _, it := range s.Items {
			all = append(all, it.U)
		}
	}
	if len(all) < n {
		t.Fatalf("tiny corpus has %d utterances, want at least %d", len(all), n)
	}
	out := make([]*synthlang.Utterance, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// TestDecodeMatchesFrozenReference decodes ≥200 corpus utterances through
// every StandardSix front-end under every channel with both the live and
// the frozen decoder from identical streams: the slot lists must agree bit
// for bit and both streams must end in the same state.
func TestDecodeMatchesFrozenReference(t *testing.T) {
	utts := refereeUtterances(t, 200)
	for _, f := range StandardSix(42) {
		ref := &frozenDecoder{f: f, confusion: frozenBuildConfusion(f)}
		for ch := synthlang.Channel(0); ch < synthlang.NumChannels; ch++ {
			for i, base := range utts {
				u := *base
				u.Channel = ch
				seed := uint64(i)<<8 | uint64(ch)
				rGot, rWant := rng.New(seed), rng.New(seed)
				got, want := f.decodeSlots(rGot, &u), ref.decodeSlots(rWant, &u)
				if len(got) != len(want) {
					t.Fatalf("%s ch%d utt %d: %d slots, frozen %d", f.Name, ch, i, len(got), len(want))
				}
				for s := range got {
					if len(got[s]) != len(want[s]) {
						t.Fatalf("%s ch%d utt %d slot %d: %v, frozen %v", f.Name, ch, i, s, got[s], want[s])
					}
					for a := range got[s] {
						g, w := got[s][a], want[s][a]
						if g.Phone != w.Phone || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
							t.Fatalf("%s ch%d utt %d slot %d: %v, frozen %v", f.Name, ch, i, s, got[s], want[s])
						}
					}
				}
				if g, w := rGot.Uint64(), rWant.Uint64(); g != w {
					t.Fatalf("%s ch%d utt %d: streams diverged (next draw %x, frozen %x)", f.Name, ch, i, g, w)
				}
			}
		}
	}
}
