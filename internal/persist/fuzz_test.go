package persist

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// fuzzQuantSeed builds a small, valid compressed payload (quantized
// kernel + packed projection) for the fuzz corpus.
func fuzzQuantSeed() []byte {
	enc := func(v int8) byte { return byte(v) }
	q := &svm.Quantized{
		NumClasses: 2, Dim: 3,
		W8:    []byte{enc(1), enc(-2), enc(3), enc(-4), enc(5), enc(-6)},
		Scale: []float64{0.5, 0.25},
		Zero:  []float64{0, 0},
		Bias:  []float64{0.1, -0.1},
	}
	pk := &proj.Packed{
		Dim: 4, Rank: 3,
		Q8:    bytes.Repeat([]byte{enc(7)}, 12),
		Scale: []float64{1, 2, 3},
	}
	var buf bytes.Buffer
	e := gob.NewEncoder(&buf)
	if err := e.Encode(q); err != nil {
		panic(err)
	}
	if err := e.Encode(pk); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func fuzzProbe() *sparse.Vector {
	return &sparse.Vector{
		Idx: []int32{0, 1, 2, 5, 1000},
		Val: []float64{0.5, -1, 2, 0.25, 1},
	}
}

// FuzzQuantizedDecode: the quantized-weight decode path (gob bytes →
// svm.Quantized + proj.Packed → Validate) must never panic on arbitrary
// input — truncation, NaN scales, zero-point overflow, and length lies
// must all come back as a decode error or a Validate error. Anything
// that survives both must then score and apply without panicking: these
// are the exact structures an untrusted bundle file feeds the serving
// hot path.
func FuzzQuantizedDecode(f *testing.F) {
	seed := fuzzQuantSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-stream
	f.Add([]byte{})
	// A bit-flipped seed steers the mutator toward near-valid streams
	// whose NaN scales / oversized zero points survive gob (well-formed
	// floats) and must die in Validate.
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := gob.NewDecoder(bytes.NewReader(data))
		var q svm.Quantized
		if err := dec.Decode(&q); err != nil {
			return
		}
		qOK := q.Validate() == nil
		var pk proj.Packed
		pkErr := dec.Decode(&pk)
		pkOK := pkErr == nil && pk.Validate() == nil

		// Whatever validated must be safe to run: score/apply a probe
		// with in-range and far-out-of-range indices.
		x := fuzzProbe()
		if qOK {
			out := make([]float64, q.NumClasses)
			q.ScoresInto(x, out)
			for _, v := range out {
				if math.IsNaN(v) {
					t.Fatal("validated quantized kernel produced NaN on a finite probe")
				}
			}
		}
		if pkOK {
			out := make([]float64, pk.Rank)
			pk.ApplyInto(x, out)
		}
	})
}

// FuzzCompressedBundleUnseal: the sealed-bundle decode path must reject
// arbitrary mutations of a compressed bundle cleanly — UnmarshalSealed
// either errors (torn tail, flipped bytes → ErrCorrupt via the footer)
// or yields a bundle that Validate accepts or rejects without panicking.
func FuzzCompressedBundleUnseal(f *testing.F) {
	b := fuzzCompressedBundle()
	sealed, err := MarshalSealed(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3]) // torn tail
	f.Add(sealed[:16])
	f.Add([]byte{})
	// The same bundle as format 1's float64 rung wrote it: it decodes
	// with the basis's F64 field skipped, so the fuzzer starts at
	// Validate's refusal of a projection scored by float64 weights.
	retired, err := V1Image(b, true)
	if err != nil {
		f.Fatal(err)
	}
	var lb Bundle
	if err := UnmarshalSealed(retired, &lb); err != nil {
		f.Fatal(err)
	}
	if err := lb.Validate(); err == nil || !strings.Contains(err.Error(), "no int8 kernel") {
		f.Fatalf("float64-rung image: Validate returned %v, want the projection without a kernel refused", err)
	}
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		var lb Bundle
		if err := UnmarshalSealed(data, &lb); err != nil {
			return
		}
		if err := lb.Validate(); err != nil {
			return
		}
		// A bundle that decodes and validates must score without
		// panicking through the projection and kernel.
		x := fuzzProbe()
		for i := range lb.FrontEnds {
			fe := &lb.FrontEnds[i]
			v := x
			if fe.Proj != nil {
				v = fe.Proj.Apply(x)
			}
			fe.Scores(v)
		}
	})
}

// fuzzCompressedBundle builds a tiny valid int8 compressed bundle.
func fuzzCompressedBundle() *Bundle {
	enc := func(v int8) byte { return byte(v) }
	const dim, rank, K = 6, 2, 2 // NumPhones 2, Order 2 → 2+4 = 6
	q := &svm.Quantized{
		NumClasses: K, Dim: rank,
		W8:    []byte{enc(100), enc(-100), enc(50), enc(-50)},
		Scale: []float64{0.01, 0.02},
		Zero:  []float64{0, 0},
		Bias:  []float64{0.1, -0.1},
	}
	pk := &proj.Packed{
		Dim: dim, Rank: rank,
		Q8:    bytes.Repeat([]byte{enc(9)}, dim*rank),
		Scale: []float64{0.5, 0.25},
	}
	return &Bundle{
		Languages: []string{"aa", "bb"},
		FrontEnds: []FrontEndModel{{
			Name: "FE0", NumPhones: 2, Order: 2,
			Proj: pk, Quant: q,
		}},
	}
}

// FuzzOpenStore: arbitrary bytes as a store's newest commit record must
// come back as the older verified record (or the newest, if the bytes
// happen to be a valid record whose payloads verify) — never a panic, and
// never an adopted record whose payloads fail verification.
func FuzzOpenStore(f *testing.F) {
	dir := f.TempDir()
	s := fileStore(dir)
	commitFile(f, s, 1, "one")
	good := commitFile(f, s, 2, "two")
	sealed, err := os.ReadFile(filepath.Join(dir, recordName(2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)/2])
	f.Add([]byte{})
	for _, rec := range []string{
		`{"format_version":1,"generation":2,"entries":{"k":{"file":"v1","bytes":1,"sha256":"00"}}}`,
		`{"format_version":1,"generation":2,"entries":{"k":{"file":"../v1"}}}`,
		`{"format_version":1,"generation":3,"entries":{}}`,
		`{"format_version":2,"generation":2}`,
		`not json`,
	} {
		f.Add(Seal([]byte(rec)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, recordName(2)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := s.Open()
		if err != nil || rec == nil {
			t.Fatalf("Open lost the verified older record: %+v err %v", rec, err)
		}
		if rec.Generation != 1 && rec.Generation != good.Generation {
			t.Fatalf("adopted generation %d", rec.Generation)
		}
		for key, ref := range rec.Entries {
			r, err := s.OpenPayload(ref, "")
			if err != nil {
				t.Fatalf("adopted record's entry %q does not verify: %v", key, err)
			}
			var v string
			err = r.Decode(&v)
			r.Close()
			if err != nil {
				t.Fatalf("adopted record's entry %q does not decode: %v", key, err)
			}
		}
	})
}
