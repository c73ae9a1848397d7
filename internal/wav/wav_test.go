package wav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

func TestRoundTrip(t *testing.T) {
	r := rng.New(1)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 0.8 * math.Sin(float64(i)*0.1)
		samples[i] += 0.05 * r.Norm()
		if samples[i] > 1 {
			samples[i] = 1
		}
		if samples[i] < -1 {
			samples[i] = -1
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, samples, 8000); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 44+2*len(samples) {
		t.Fatalf("file size %d", buf.Len())
	}
	got, sr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr != 8000 {
		t.Fatalf("sample rate %d", sr)
	}
	if len(got) != len(samples) {
		t.Fatalf("%d samples", len(got))
	}
	for i := range samples {
		if math.Abs(got[i]-samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, got[i], samples[i])
		}
	}
}

func TestClipping(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{2, -2, 0}, 8000); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-3 || math.Abs(got[1]+1) > 1e-3 {
		t.Fatalf("clipping wrong: %v", got)
	}
}

func TestReadSkipsUnknownChunks(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{0.5, -0.5}, 16000); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Splice a LIST chunk between fmt and data.
	list := append([]byte("LIST"), 4, 0, 0, 0, 'I', 'N', 'F', 'O')
	spliced := append(append(append([]byte{}, raw[:36]...), list...), raw[36:]...)
	// Fix the RIFF size field.
	spliced[4] = byte(len(spliced) - 8)
	got, sr, err := Read(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	if sr != 16000 || len(got) != 2 {
		t.Fatalf("sr=%d n=%d", sr, len(got))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("not a wav file at all"))); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

func TestWriteRejectsBadRate(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{0}, 0); err == nil {
		t.Fatal("accepted zero sample rate")
	}
}

func TestFileRoundTripWithSynthSpeech(t *testing.T) {
	// Export a real synthetic utterance and read it back.
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)
	r := rng.New(5)
	spk := synthlang.NewSpeaker(r, 0)
	u := langs[0].Sample(r, 2, spk, synthlang.ChannelCTSClean)
	samples := synthspeech.New().Render(r, u)
	// Normalize to peak 0.99: Render targets an RMS of 0.3, so peaks can
	// exceed full scale and would clip.
	var peak float64
	for _, v := range samples {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	for i := range samples {
		samples[i] *= 0.99 / peak
	}

	path := filepath.Join(t.TempDir(), "utt.wav")
	if err := WriteFile(path, samples, synthspeech.SampleRate); err != nil {
		t.Fatal(err)
	}
	got, sr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sr != synthspeech.SampleRate || len(got) != len(samples) {
		t.Fatalf("sr=%d n=%d want %d", sr, len(got), len(samples))
	}
	// Energy preserved within quantization error.
	var e1, e2 float64
	for i := range samples {
		e1 += samples[i] * samples[i]
		e2 += got[i] * got[i]
	}
	if math.Abs(e1-e2)/e1 > 0.01 {
		t.Fatalf("energy changed: %v vs %v", e1, e2)
	}
}

// No binary links these; the package's tests use them as referees or
// fixtures.

// Read decodes a mono 16-bit PCM WAV stream, returning samples scaled to
// [−1, 1] and the sample rate.
func Read(r io.Reader) (samples []float64, sampleRate int, err error) {
	var riff [12]byte
	if _, err := io.ReadFull(r, riff[:]); err != nil {
		return nil, 0, fmt.Errorf("wav: header: %w", err)
	}
	if string(riff[0:4]) != "RIFF" || string(riff[8:12]) != "WAVE" {
		return nil, 0, fmt.Errorf("wav: not a RIFF/WAVE stream")
	}
	var (
		fmtSeen  bool
		channels uint16
		bits     uint16
	)
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF && fmtSeen {
				return nil, 0, fmt.Errorf("wav: missing data chunk")
			}
			return nil, 0, fmt.Errorf("wav: chunk header: %w", err)
		}
		id := string(chunk[0:4])
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch id {
		case "fmt ":
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, 0, fmt.Errorf("wav: fmt chunk: %w", err)
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			channels = binary.LittleEndian.Uint16(body[2:4])
			sampleRate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = binary.LittleEndian.Uint16(body[14:16])
			if format != 1 {
				return nil, 0, fmt.Errorf("wav: unsupported format %d (want PCM)", format)
			}
			if channels != 1 {
				return nil, 0, fmt.Errorf("wav: %d channels (want mono)", channels)
			}
			if bits != 16 {
				return nil, 0, fmt.Errorf("wav: %d-bit samples (want 16)", bits)
			}
			fmtSeen = true
		case "data":
			if !fmtSeen {
				return nil, 0, fmt.Errorf("wav: data chunk before fmt")
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, 0, fmt.Errorf("wav: data chunk: %w", err)
			}
			n := int(size) / 2
			samples = make([]float64, n)
			for i := 0; i < n; i++ {
				v := int16(binary.LittleEndian.Uint16(body[2*i:]))
				samples[i] = float64(v) / 32767
			}
			return samples, sampleRate, nil
		default:
			// Skip unknown chunks (word-aligned).
			skip := int64(size)
			if skip%2 == 1 {
				skip++
			}
			if _, err := io.CopyN(io.Discard, r, skip); err != nil {
				return nil, 0, fmt.Errorf("wav: skipping %q chunk: %w", id, err)
			}
		}
	}
}

// ReadFile reads a WAV file.
func ReadFile(path string) ([]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Read(f)
}
