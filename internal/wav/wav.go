// Package wav writes mono 16-bit PCM RIFF/WAVE files, so the synthetic
// telephone speech can be exported for listening or external processing.
// Only the canonical 44-byte-header PCM layout is produced.
package wav

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Write encodes samples in [−1, 1] as 16-bit PCM mono at the given rate.
// Samples outside [−1, 1] are clipped.
func Write(w io.Writer, samples []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return fmt.Errorf("wav: invalid sample rate %d", sampleRate)
	}
	dataLen := uint32(len(samples) * 2)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataLen)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16)
	binary.LittleEndian.PutUint16(hdr[20:22], 1) // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1) // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(sampleRate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)                   // bits
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataLen)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 2*len(samples))
	for i, s := range samples {
		if s > 1 {
			s = 1
		}
		if s < -1 {
			s = -1
		}
		v := int16(math.Round(s * 32767))
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	_, err := w.Write(buf)
	return err
}

// WriteFile writes a WAV file.
func WriteFile(path string, samples []float64, sampleRate int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, samples, sampleRate); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
