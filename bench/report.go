package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric kinds: end-to-end metrics are what a user of the system sees and
// carry a regression bound in BENCHMARK.json; per-layer metrics explain
// them.
const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
}

// metrics collects one run's metrics in the order they are reported.
type metrics struct{ list []metric }

func (m *metrics) add(kind, name string, v float64, unit string) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Kind: kind})
}
func (m *metrics) e2e(name string, v float64, unit string)   { m.add(kindE2E, name, v, unit) }
func (m *metrics) layer(name string, v float64, unit string) { m.add(kindLayer, name, v, unit) }

// value returns a metric already added (0 if absent).
func (m *metrics) value(name string) float64 {
	for _, mt := range m.list {
		if mt.Name == name {
			return mt.Value
		}
	}
	return 0
}

func kindFor(trace bool) string {
	if trace {
		return kindLayer
	}
	return kindE2E
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the -out document: one run of each workload it ran.
type report struct {
	Env  envStamp     `json:"env"`
	Runs []*runResult `json:"runs"`
}

// envStamp records what a result was measured on and with.
type envStamp struct {
	GoVersion   string                `json:"go_version"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	NumCPU      int                   `json:"nproc"`
	Commit      string                `json:"commit"`
	Seed        uint64                `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Scale       string                `json:"scale"`
	Trace       bool                  `json:"trace"`
	Connections int                   `json:"connections"`
	DaemonFlags map[string][][]string `json:"daemon_flags"`
	Bounds      map[string]float64    `json:"bounds,omitempty"`
}

func stamp(cfg runConfig) envStamp {
	e := envStamp{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Commit:      commit(),
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Scale:       setupScale.String(),
		Trace:       cfg.trace,
		Connections: connections,
		DaemonFlags: map[string][][]string{},
	}
	// The command line of each server process, with placeholders for the
	// per-run directories and addresses.
	for _, w := range workloads {
		if w.fleet {
			e.DaemonFlags[w.name] = [][]string{
				daemonArgs(w, "MODELS", "", []string{"WORKER0", "WORKER1"}),
				daemonArgs(w, "", "SPOOL", nil),
			}
		} else {
			e.DaemonFlags[w.name] = [][]string{daemonArgs(w, "MODELS", "", nil)}
		}
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil && json.Unmarshal(data, &spec) == nil {
		e.Bounds = map[string]float64{}
		for _, m := range spec.EndToEnd {
			e.Bounds[m.Name] = m.Bound
		}
	}
	return e
}

// commit reads the checked-out commit from .git in the working directory
// without leaving it; "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

func writeIndented(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
