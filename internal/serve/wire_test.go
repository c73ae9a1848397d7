package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/testbundle"
)

// TestMain caps how long the fuzzer minimizes each new interesting
// input at 2 s unless -test.fuzzminimizetime is given: the seeds include
// multi-kilobyte bodies, and the minimizer's byte-range removal pass is
// quadratic in the input's length, so at the default 60 s a short
// FuzzDecodeScoreRequest run would spend most of its budget minimizing.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "2s")
	}
	os.Exit(m.Run())
}

// frontEndNames are the paper's six phone recognizers.
var frontEndNames = []string{"HU", "RU", "CZ", "EN-DNN", "MA", "EN-GMM"}

// sixFrontEndBody is a /v1/score body shaped like a replayed offline
// extraction: a pre-scaled supervector of nnz strictly increasing
// indices per front-end.
func sixFrontEndBody(t testing.TB, nnz int) []byte {
	rng := rand.New(rand.NewPCG(42, uint64(nnz)))
	req := ScoreRequest{ID: "utt-0042", FrontEnds: make(map[string]FrontEndInput)}
	for _, name := range frontEndNames {
		sv := &Supervector{Scaled: true}
		ix := int32(0)
		for range nnz {
			ix += 1 + rng.Int32N(40)
			sv.Idx = append(sv.Idx, ix)
			sv.Val = append(sv.Val, rng.NormFloat64()*1e-3)
		}
		req.FrontEnds[name] = FrontEndInput{Supervector: sv}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// refereeDecode is what encoding/json makes of a body.
func refereeDecode(body []byte, batch bool) ([]ScoreRequest, error) {
	if batch {
		var req BatchRequest
		err := json.Unmarshal(body, &req)
		return req.Utterances, err
	}
	var req ScoreRequest
	err := json.Unmarshal(body, &req)
	return []ScoreRequest{req}, err
}

// floatBits lists every float64 of a decoded request in a fixed order,
// as bits: reflect.DeepEqual alone takes -0 for 0.
func floatBits(utts []ScoreRequest) []uint64 {
	var bits []uint64
	for _, u := range utts {
		for _, name := range sortedKeys(u.FrontEnds) {
			in := u.FrontEnds[name]
			if in.Supervector != nil {
				for _, v := range in.Supervector.Val {
					bits = append(bits, math.Float64bits(v))
				}
			}
			for _, slot := range in.Lattice {
				for _, alt := range slot {
					bits = append(bits, math.Float64bits(alt.Prob))
				}
			}
		}
	}
	return bits
}

func sortedKeys(m map[string]FrontEndInput) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkMatchesReferee decodes body both ways, as a single and as a batch
// request, and fails unless DecodeScoreRequest gives encoding/json's
// verdict and, on accept, its values bit for bit. The decoder reads a
// copy that is scribbled over afterwards, so a value aliasing the body
// shows up as a mismatch.
func checkMatchesReferee(t *testing.T, body []byte) {
	t.Helper()
	for _, batch := range []bool{false, true} {
		want, werr := refereeDecode(body, batch)
		scratch := append([]byte(nil), body...)
		got, gerr := DecodeScoreRequest(scratch, batch)
		for i := range scratch {
			scratch[i] = 'x'
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("batch=%v: DecodeScoreRequest error %v, encoding/json error %v\nbody %q", batch, gerr, werr, body)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(floatBits(got), floatBits(want)) {
			t.Fatalf("batch=%v: decoded %+v, encoding/json %+v\nbody %q", batch, got, want, body)
		}
	}
}

// wireSeeds are the request-wire cases DESIGN.md lists, each checked
// against encoding/json as a single and as a batch body.
func wireSeeds(t testing.TB) [][]byte {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	real := sixFrontEndBody(t, 40)
	seeds := []string{
		`{"id":"u1","frontends":{"HU":{"supervector":{"idx":[0,3,17],"val":[0.5,-0,1e-310],"scaled":true}}}}`,
		`{"frontends":{"HU":{"lattice":[[{"phone":1,"prob":0.9},{"phone":2,"prob":0.1}],[{"phone":5,"prob":1.0}]]}}}`,
		// Keys: exact, else bytes.EqualFold ("ſ" folds to "s").
		`{"FRONTENDS":{"HU":{"SuperVector":{"IDX":[1],"Val":[2],"ſcaled":true}}},"ID":"x"}`,
		// Unknown keys are skipped whatever they hold.
		`{"x":[{"y":[1,-2.5e3,{"z":null}],"t":true,"f":false}],"frontends":{"HU":{"extra":"é","lattice":[[{"phone":1,"prob":0.5,"q":[]}]]}}}`,
		`{"x":` + nest(9999) + `,"frontends":{}}`,
		`{"x":` + nest(10000) + `,"frontends":{}}`,
		// Repeated keys: arrays overwrite in place, objects merge.
		`{"frontends":{"HU":{"supervector":{"idx":[1,2,3],"val":[1,2,3],"idx":[7]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1]},"supervector":{"val":[2]}}}}`,
		`{"frontends":{"HU":{"supervector":{}}},"frontends":{"RU":{"lattice":[]}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1]}},"HU":{"lattice":[[]]}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1,2,3],"idx":[5],"idx":[null,null,null,null]}}}}`,
		`{"frontends":{"HU":{"lattice":[[{"phone":1,"prob":0.5},{"phone":2,"prob":0.5}],[{"phone":3,"prob":1}]],"lattice":[[{"prob":0.7}]],"lattice":[[null,null],null,[null]]}}}`,
		`{"utterances":[{"id":"a","frontends":{"HU":{}}},null],"utterances":[{"frontends":{"RU":{}}}]}`,
		// null leaves structs, numbers, strings and bools, clears the rest.
		`{"id":null,"frontends":{"HU":null,"RU":{"supervector":null,"lattice":null},"CZ":{"supervector":{"idx":null,"val":[null],"scaled":null}}}}`,
		`{"id":"keep","id":null,"frontends":{"HU":{"supervector":{"scaled":true,"scaled":null}}},"frontends":null}`,
		`null`, ` {} `, `[]`, `{"utterances":null}`, `{"utterances":[]}`, `{"utterances":[null]}`,
		// Strings: escapes, surrogate pairs, invalid UTF-8 to U+FFFD.
		`{"id":"😀 \ud800x \udc00 \"\\\/\b\f\n\r\t","frontends":{"HU":{}}}`,
		"{\"id\":\"a\xffb\xc3\",\"frontends\":{\"H\xe2\x82U\":{}}}",
		`{"id":"\x"}`, `{"id":"\u12G4"}`, "{\"id\":\"a\tb\"}",
		// Numbers: rejected unless encoding/json takes them.
		`{"frontends":{"HU":{"supervector":{"val":[1e400]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[-1e-400]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[2147483647,2147483648]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[-2147483648]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1.0]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1e2]}}}}`,
		`{"frontends":{"HU":{"lattice":[[{"phone":9223372036854775808}]]}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[+1]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[.5]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[1.]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[0x1p3]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[Inf]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[NaN]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[01]}}}}`,
		`{"frontends":{"HU":{"supervector":{"val":[-0.0e-0,1E+2,-]}}}}`,
		// Shapes encoding/json rejects.
		`{"frontends":{"HU":{"supervector":{"idx":["1"]}}}}`,
		`{"frontends":{"HU":{"supervector":[]}}}`,
		`{"frontends":{"HU":{"lattice":{}}}}`,
		`{"frontends":{"HU":{"supervector":{"scaled":1}}}}`,
		`{"frontends":[]}`, `{"id":5}`, `"str"`, `{"utterances":{}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[1,]}}}}`,
		`{"frontends":{"HU":{"supervector":{"idx":[,,,,,,,,]}}}}`,
		`{"frontends":{},}`, `{"frontends" {}}`, `{frontends:{}}`, `{"a":tru}`,
		// Trailing data and truncation.
		`{} x`, `{}{}`, `{}]`, "{}\n\t ", ``, ` `, `{`,
		string(real[:len(real)/2]),
		string(real),
		`{"utterances":[` + string(real) + `,` + string(real) + `]}`,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeScoreRequest holds the request-wire decoder to encoding/json:
// the same accept/reject verdict for single and batch bodies, the same
// decoded values bit for bit, nothing aliasing the body, and no panic.
func FuzzDecodeScoreRequest(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkMatchesReferee)
}

// TestDecodeLatticeOneArena: a lattice's slots are one exactly sized
// outer slice whose alternatives sit back to back in one arena, each
// slot capped at its own length.
func TestDecodeLatticeOneArena(t *testing.T) {
	body := `{"frontends":{"HU":{"lattice":[[{"phone":1,"prob":0.5},null],[],null,[{"phone":2,"prob":1}],[{"phone":3,"prob":0.25},{"phone":4,"prob":0.75}]]}}}`
	utts, err := DecodeScoreRequest([]byte(body), false)
	if err != nil {
		t.Fatal(err)
	}
	l := utts[0].FrontEnds["HU"].Lattice
	if len(l) != 5 || cap(l) != 5 {
		t.Fatalf("outer slice len %d cap %d, want 5 and 5", len(l), cap(l))
	}
	addr := func(s []Slot) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }
	next := addr(l[0])
	for _, i := range []int{0, 3, 4} {
		if addr(l[i]) != next || cap(l[i]) != len(l[i]) {
			t.Fatalf("slot %d (%v, cap %d) is not the arena's next %d alternatives", i, l[i], cap(l[i]), len(l[i]))
		}
		next += uintptr(len(l[i])) * unsafe.Sizeof(Slot{})
	}
}

// TestDecodeScoreRequestBounds: bodies at the decoder's limits answer
// 400 and leave the daemon serving.
func TestDecodeScoreRequestBounds(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 3)
	good, _ := json.Marshal(scoreRequestFor(b, testbundle.Vector(7)))
	nested := `{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`
	const limit = maxBodyBytes
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fe := b.FrontEnds[0].Name

	// Bodies are built one case at a time: each limit-sized one is 32 MiB.
	pad := func(n int) func() string {
		return func() string { return string(good) + strings.Repeat(" ", n-len(good)) }
	}
	commas := func(prefix, suffix string) func() string {
		return func() string { return prefix + strings.Repeat(",", limit-64) + suffix }
	}
	for _, tc := range []struct {
		name string
		body func() string
		want int
	}{
		{"body at the limit", pad(limit), http.StatusOK},
		{"body one byte over the limit", pad(limit + 1), http.StatusBadRequest},
		{"10,001 nested arrays under an unknown key", func() string { return nested }, http.StatusBadRequest},
		{"idx count-first sizing past len(body)/2", commas(`{"frontends":{"`+fe+`":{"supervector":{"idx":[`, `],"val":[]}}}}`), http.StatusBadRequest},
		{"lattice shape past len(body)/3", commas(`{"frontends":{"`+fe+`":{"lattice":[`, `]}}}`), http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(tc.body()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (want %d): %v", tc.name, resp.StatusCode, tc.want, out)
		}
		if tc.want == http.StatusBadRequest && !strings.HasPrefix(out["error"].(string), "bad request body: ") {
			t.Fatalf("%s: error %q lacks the bad-request-body prefix", tc.name, out["error"])
		}
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(8))); resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon stopped serving after the bound cases: status %d", resp.StatusCode)
	}
}

// TestDecodeScoreRequestAllocs pins the request path's allocations: a
// body's read and parse allocate a fixed number of times per front-end,
// however many nonzeros its supervectors carry.
func TestDecodeScoreRequestAllocs(t *testing.T) {
	s := &Server{}
	allocs := func(nnz int) float64 {
		body := sixFrontEndBody(t, nnz)
		return testing.AllocsPerRun(20, func() {
			r := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
			if _, ok := s.decodeUtterances(httptest.NewRecorder(), r, nil, false); !ok {
				t.Fatal("body rejected")
			}
		})
	}
	small, large := allocs(50), allocs(1300)
	t.Logf("allocations per request: %.0f at 50 nnz per front-end, %.0f at 1300", small, large)
	if small != large {
		t.Fatalf("allocations grow with nnz: %.0f at 50 per front-end, %.0f at 1300", small, large)
	}
}

// BenchmarkDecodeScoreRequest times the request-wire decoder against the
// encoding/json referee on a six-front-end body sized like the small
// seed-42 replay bodies (≈1,300 nonzeros per front-end).
func BenchmarkDecodeScoreRequest(b *testing.B) {
	body := sixFrontEndBody(b, 1300)
	b.Run("wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeScoreRequest(body, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ScoreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
