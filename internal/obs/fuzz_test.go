package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent: the traceparent header arrives from any client.
// The parser must never panic, and an accepted header must yield a
// 32-hex trace id and a 16-hex parent id, lowercase and not all zero,
// that round-trip through Traceparent unchanged.
func FuzzParseTraceparent(f *testing.F) {
	tid, pid := "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	f.Add("00-" + tid + "-" + pid + "-01")
	f.Add("00-" + strings.ToUpper(tid) + "-" + pid + "-01")
	f.Add("cc-" + tid + "-" + pid + "-01-extra")
	f.Add("ff-" + tid + "-" + pid + "-01")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + pid + "-01")
	f.Add("00-" + tid + "-" + pid + "-0g")
	f.Add("00-" + tid[:31] + "-" + pid + "-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		gotTID, gotPID, ok := ParseTraceparent(h)
		if !ok {
			if gotTID != "" || gotPID != "" {
				t.Fatalf("ParseTraceparent(%q) rejected the header but returned ids (%q, %q)", h, gotTID, gotPID)
			}
			return
		}
		for _, id := range []struct {
			name, v string
			width   int
		}{{"trace id", gotTID, 32}, {"parent id", gotPID, 16}} {
			if len(id.v) != id.width || strings.Trim(id.v, "0123456789abcdef") != "" || allZero(id.v) {
				t.Fatalf("ParseTraceparent(%q) accepted %s %q: want %d lowercase hex digits, not all zero", h, id.name, id.v, id.width)
			}
		}
		h2 := Traceparent(gotTID, gotPID)
		if tid2, pid2, ok2 := ParseTraceparent(h2); !ok2 || tid2 != gotTID || pid2 != gotPID {
			t.Fatalf("ids of %q do not round-trip through %q: (%q, %q, %v)", h, h2, tid2, pid2, ok2)
		}
	})
}
