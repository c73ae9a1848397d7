package lattice_test

import (
	"math"
	"testing"

	"repro/internal/lattice"
)

// decodeSausage maps fuzz bytes onto a sausage and a phone-inventory
// size. The encoding deliberately reaches every validation branch of
// ParseSausage: empty slots, out-of-range and negative phones, and
// NaN/±Inf/negative probabilities via reserved byte values.
func decodeSausage(data []byte) ([]lattice.SausageSlot, int) {
	if len(data) == 0 {
		return nil, 0
	}
	numPhones := int(data[0]%9) - 1 // -1..7; <=0 disables the range check
	data = data[1:]
	var slots []lattice.SausageSlot
	for len(data) >= 1 {
		nAlt := int(data[0] % 4) // 0 → empty slot (must be rejected)
		data = data[1:]
		var slot lattice.SausageSlot
		for a := 0; a < nAlt && len(data) >= 2; a++ {
			phone := int(int8(data[0]))
			var prob float64
			switch b := data[1]; b {
			case 255:
				prob = math.NaN()
			case 254:
				prob = math.Inf(1)
			case 253:
				prob = math.Inf(-1)
			case 252:
				prob = -1.5
			default:
				prob = float64(b) / 64
			}
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: phone, Prob: prob})
			data = data[2:]
		}
		slots = append(slots, slot)
	}
	return slots, numPhones
}

// referenceSausage builds the lattice a valid sausage describes one
// AddEdge at a time — the construction ParseSausage and FromSausage must
// reproduce from their shared arena builder.
func referenceSausage(slots []lattice.SausageSlot) *lattice.Lattice {
	l := lattice.New(len(slots) + 1)
	for i, slot := range slots {
		for _, alt := range slot {
			if alt.Prob > 0 {
				l.AddEdge(i, i+1, alt.Phone, math.Log(alt.Prob))
			}
		}
	}
	return l
}

// emission is one ExpectedNgramCountsAll callback, weight kept as bits.
type emission struct {
	order, a, b int
	bits        uint64
}

func bigramStream(l *lattice.Lattice) []emission {
	var out []emission
	l.ExpectedNgramCountsAll(2, func(order int, g []int, w float64) {
		e := emission{order: order, a: g[0], b: -1, bits: math.Float64bits(w)}
		if order == 2 {
			e.b = g[1]
		}
		out = append(out, e)
	})
	return out
}

// sameLattice fails unless got and want have the same edges, bit-identical
// forward–backward scores and the same bigram emission stream.
func sameLattice(t *testing.T, what string, got, want *lattice.Lattice) {
	t.Helper()
	if got.NumNodes != want.NumNodes || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d nodes/%d edges, reference %d/%d",
			what, got.NumNodes, got.NumEdges(), want.NumNodes, want.NumEdges())
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d is %+v, reference %+v", what, i, got.Edges[i], want.Edges[i])
		}
	}
	ga, gb, gt := got.ForwardBackward()
	wa, wb, wt := want.ForwardBackward()
	if math.Float64bits(gt) != math.Float64bits(wt) {
		t.Fatalf("%s: log-likelihood %v, reference %v", what, gt, wt)
	}
	for n := range ga {
		if math.Float64bits(ga[n]) != math.Float64bits(wa[n]) || math.Float64bits(gb[n]) != math.Float64bits(wb[n]) {
			t.Fatalf("%s: node %d α/β (%v,%v), reference (%v,%v)", what, n, ga[n], gb[n], wa[n], wb[n])
		}
	}
	gs, ws := bigramStream(got), bigramStream(want)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d n-gram emissions, reference %d", what, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: emission %d is %+v, reference %+v", what, i, gs[i], ws[i])
		}
	}
}

// FuzzParseSausage: the untrusted-input parser must never panic, and on
// success must hand back a connected lattice with a finite likelihood
// that matches, bit for bit, the lattice built edge by edge. The trusted
// builder must agree on every sausage the parser accepts.
func FuzzParseSausage(f *testing.F) {
	// Valid two-slot sausage over a 5-phone inventory.
	f.Add([]byte{6, 2, 1, 64, 2, 32, 1, 3, 64})
	// Empty slot, NaN and Inf probabilities, negative phone.
	f.Add([]byte{6, 0})
	f.Add([]byte{6, 1, 1, 255})
	f.Add([]byte{6, 1, 1, 254, 1, 2, 253})
	f.Add([]byte{0, 1, 131, 64})
	// Zero-probability alternative alongside a live one.
	f.Add([]byte{3, 2, 1, 0, 2, 64})
	f.Add([]byte{})
	// Five slots of up to three alternatives with zero-probability holes:
	// runs of different lengths carved from one index arena.
	f.Add([]byte{8, 3, 1, 64, 2, 0, 3, 16, 1, 4, 200, 2, 5, 10, 6, 90, 3, 0, 0, 1, 0, 2, 33, 2, 6, 1, 5, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		slots, numPhones := decodeSausage(data)
		l, err := lattice.ParseSausage(slots, numPhones)
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("accepted sausage fails Validate: %v", verr)
		}
		_, _, logTotal := l.ForwardBackward()
		if math.IsNaN(logTotal) || math.IsInf(logTotal, 1) {
			t.Fatalf("accepted sausage has log-likelihood %v", logTotal)
		}
		ref := referenceSausage(slots)
		sameLattice(t, "ParseSausage", l, ref)
		// A sausage ParseSausage accepts is by definition trusted input, so
		// FromSausage must build it too without panicking.
		sameLattice(t, "FromSausage", lattice.FromSausage(slots), ref)
		// The builder shares one index arena between slots: an edge added
		// afterwards must copy node 0's run, not overwrite slot 1's.
		l.AddEdge(0, 1, 0, -1)
		ref.AddEdge(0, 1, 0, -1)
		sameLattice(t, "ParseSausage+AddEdge", l, ref)
	})
}
