package experiments

import (
	"log"
	"os"
	"time"

	"repro/internal/adapt"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/synthlang"
)

// BuildBundle assembles the serving bundle from a trained pipeline: every
// front-end's TFLLR scaler and baseline one-vs-rest SVM set, plus a
// trial-level LDA-MMI fusion backend trained on the pooled dev trials
// (one feature per front-end, class 1 = target — the same 2-class shape
// Table 4's fusion uses per duration tier). The bundle scores exactly
// like the batch pipeline: for the same supervectors, OVR decision values
// are bit-identical to Pipeline.BaselineScores.
func (p *Pipeline) BuildBundle() *persist.Bundle {
	b := &persist.Bundle{
		Languages: append([]string(nil), synthlang.LanguageNames...),
	}
	for q, fe := range p.FEs {
		b.FrontEnds = append(b.FrontEnds, persist.FrontEndModel{
			Name:      fe.Name,
			NumPhones: fe.Set.Size,
			Order:     fe.Space.Order,
			TFLLR:     p.Feats[q].TF,
			OVR:       p.Baseline[q],
		})
	}
	b.Fusion = p.fusionBackend()
	// The tier-1 cascade rides along in every exported bundle (serving
	// only uses it when -cascade is on). A pipeline that can't train one
	// (e.g. ablations without the designated front-end) just ships
	// without — a cascade-less bundle is the legacy format.
	if m, err := p.TrainCascade(); err == nil {
		b.Cascade = m
	} else {
		log.Printf("experiments: bundle ships without a cascade: %v", err)
	}
	return b
}

// fusionBackend trains (once) the bundle's trial-level fusion backend on
// the pooled dev trials — the heavy path's decision scorer, shared by
// BuildBundle and the cascade calibration/eval paths. Nil on a degenerate
// dev set (never at supported scales): the server then falls back to mean
// scores, and the cascade calibrates against that same fallback.
func (p *Pipeline) fusionBackend() *fusion.Backend {
	p.fusionMu.Lock()
	defer p.fusionMu.Unlock()
	if p.fusionTrained {
		return p.fusionBk
	}
	p.fusionTrained = true
	p.fusionBk = pooledDevBackend(p.BaselineDev, p.DevLabels)
	return p.fusionBk
}

// pooledDevBackend trains a bundle's fusion backend on the trials of every
// dev utterance (all duration tiers pooled) of the dev score matrices
// dev[q][i][k]; nil on a degenerate dev set.
func pooledDevBackend(dev [][][]float64, labels []int) *fusion.Backend {
	x, y := fusion.Trials(dev, nil, labels, nil)
	bk, _ := fusion.Train(x, y, 2, fusion.DefaultConfig())
	return bk
}

// ExportModels writes the pipeline's serving bundle plus a provenance
// manifest to dir (the cmd/lre -export-models path; cmd/lred loads the
// result). A positive rank exports the compressed bundle instead
// (Compress(rank), CompressedSystem.BuildBundle). rank is optional so
// that the two-argument call, the plain export, stays valid for callers
// outside this module (the bench harness); at most one may be given.
func (p *Pipeline) ExportModels(dir, gitDescribe string, rank ...int) (*persist.Manifest, error) {
	sp := obs.StartSpan("export-models")
	defer sp.End()
	m := persist.Manifest{
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		Seed:        p.Seed,
		Scale:       p.Scale.String(),
		GitDescribe: gitDescribe,
	}
	var b *persist.Bundle
	if len(rank) > 0 && rank[0] > 0 {
		// No adapt sidecar: int8 bundles carry no trainable weights, so
		// they serve with adaptation off.
		cs, err := p.Compress(rank[0])
		if err != nil {
			return nil, err
		}
		b = cs.BuildBundle(p)
	} else {
		// The adapt sidecar lands before the bundle, the manifest last —
		// a manifest that names AdaptFile therefore never points at a
		// missing or torn sidecar.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := adapt.SaveSet(dir, p.BuildAdaptSet()); err != nil {
			return nil, err
		}
		m.AdaptFile = adapt.SetFile
		b = p.BuildBundle()
	}
	if err := persist.SaveBundle(dir, b, m); err != nil {
		return nil, err
	}
	// Re-read what was written: the returned manifest is exactly what a
	// scoring process will see, and the round trip catches encode bugs at
	// export time rather than at serve time.
	_, out, err := persist.LoadBundle(dir)
	return out, err
}
