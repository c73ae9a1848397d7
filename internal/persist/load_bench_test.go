package persist_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/testbundle"
)

// BenchmarkLoadBundle times LoadBundle — one read, the footer and
// manifest checks, the decode and Validate — on the test bundle with its
// cascade model, exported once; MB/s counts sealed bundle bytes.
func BenchmarkLoadBundle(b *testing.B) {
	dir := b.TempDir()
	testbundle.WriteCascade(b, dir, 1)
	st, err := os.Stat(filepath.Join(dir, "bundle.gob"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := persist.LoadBundle(dir); err != nil {
			b.Fatal(err)
		}
	}
}
