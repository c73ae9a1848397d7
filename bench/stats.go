package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of raw
// samples: the smallest sample with at least q·n samples at or below it.
// The samples are not interpolated and not bucketed, so every reported
// value is one that was measured. With no samples — a layer that did no
// work in the workload — it returns 0.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[min(max(rank(q, n), 1), n)-1]
}

// rank is the 1-based nearest-rank position of quantile q among n
// samples. The tolerance keeps products such as 0.999·10000, which
// floating point puts a hair above 9990, on the intended rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sum(samples) / float64(len(samples))
}

func sum(samples []float64) float64 {
	var s float64
	for _, x := range samples {
		s += x
	}
	return s
}

// tailLadder is the set of percentiles a tail latency is reported at.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9}

// tailPercentile returns the highest percentile of tailLadder whose
// nearest-rank sample of n leaves at least minBeyond samples above it, so
// a tail figure always rests on at least minBeyond observations. It
// returns 0 when even the median does not qualify.
func tailPercentile(n, minBeyond int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p/100, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// poissonSchedule draws the due times of one open-loop round: arrivals of
// a Poisson process at rate per second over dur, as offsets from the
// round's start. The same seed and round give the same schedule.
func poissonSchedule(seed uint64, round int, rate float64, dur time.Duration) []time.Duration {
	r := rng.New(seed).SplitString("arrivals").Split(uint64(round))
	var out []time.Duration
	t := 0.0
	for {
		t += r.Exp() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// requestOrder is the seeded permutation the load phases walk through.
func requestOrder(seed uint64, n int) []int {
	return rng.New(seed).SplitString("order").Perm(n)
}

// openSample is one open-loop request, timed against its due time: the
// latency counts any wait for a free connection, so a stall also counts
// against every request queued behind it.
type openSample struct {
	due, sent, done time.Duration // offsets from the phase start
}

func (s openSample) latency() time.Duration  { return s.done - s.due }
func (s openSample) lateness() time.Duration { return s.sent - s.due }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat returns utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(text string) (int64, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// resetPeakRSS resets the VmHWM of process pid ("self": this one) to its
// current resident set, so the next peakRSSKB covers only what follows.
func resetPeakRSS(pid string) error {
	if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSKB is the VmHWM of process pid ("self": this one), in KiB.
func peakRSSKB(pid string) (int64, error) {
	text, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(text))
}

// parseVmHWM returns the peak resident set size, in KiB, from the text
// of /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
