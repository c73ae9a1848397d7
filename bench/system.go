package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// fleetWorkers is the shard-worker count of the fleet topology.
const fleetWorkers = 2

// readyTimeout bounds one cold boot.
const readyTimeout = 60 * time.Second

// system is the set of lred processes that serve one workload: one
// standalone daemon, or a coordinator in front of shard workers.
type system struct {
	procs []*daemon // every server process, the front one last
	front *daemon   // where clients send requests
}

// daemonArgs are the flags each process of a workload's system runs with;
// every flag not listed keeps its shipped default.
func daemonArgs(w workload, models, spool string, peers []string) []string {
	var args []string
	switch {
	case spool != "":
		return []string{"-role=worker", "-spool", spool, "-addr", "127.0.0.1:0"}
	case peers != nil:
		args = []string{"-role=coordinator", "-models", models, "-peers", strings.Join(peers, ","), "-addr", "127.0.0.1:0"}
	default:
		args = []string{"-models", models, "-addr", "127.0.0.1:0"}
	}
	if w.cascade {
		args = append(args, "-cascade")
	}
	return args
}

// boot cold-starts the workload's system and returns it with the time from
// the first exec until the front process answers /readyz. Fleet workers
// start from empty spool directories, so a fleet boot includes the
// coordinator's first bundle distribution.
func boot(lred string, w workload, dir string, n int, ctl *http.Client) (*system, time.Duration, error) {
	models := filepath.Join(dir, modelsDir)
	s := &system{}
	start := time.Now()
	if w.fleet {
		var peers []string
		for i := 0; i < fleetWorkers; i++ {
			spool := filepath.Join(dir, fmt.Sprintf("spool-%d-%d", n, i))
			d, err := startDaemon(lred, fmt.Sprintf("worker %d", i), daemonArgs(w, models, spool, nil)...)
			if err != nil {
				s.kill()
				return nil, 0, err
			}
			s.procs = append(s.procs, d)
			peers = append(peers, d.addr)
		}
		d, err := startDaemon(lred, "coordinator", daemonArgs(w, models, "", peers)...)
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		s.procs = append(s.procs, d)
	} else {
		d, err := startDaemon(lred, "lred", daemonArgs(w, models, "", nil)...)
		if err != nil {
			return nil, 0, err
		}
		s.procs = append(s.procs, d)
	}
	s.front = s.procs[len(s.procs)-1]
	if err := waitReady(ctl, s.front, w.fleet, readyTimeout); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop drains every process, front first, and reports any that did not
// exit cleanly.
func (s *system) stop() error {
	var errs []error
	for i := len(s.procs) - 1; i >= 0; i-- {
		if err := s.procs[i].stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (s *system) kill() {
	for _, d := range s.procs {
		d.kill()
	}
}

// snapshot is every server process's /metricsz report at a phase
// boundary.
type snapshot struct {
	reports []*obs.Report
}

func (s *system) snapshot(ctl *http.Client) (snapshot, error) {
	var snap snapshot
	for _, d := range s.procs {
		rep, err := d.metrics(ctl)
		if err != nil {
			return snap, err
		}
		snap.reports = append(snap.reports, rep)
	}
	return snap, nil
}

// cpuTicks sums the server processes' CPU time, in clock ticks.
func (s *system) cpuTicks() (int64, error) {
	var sum int64
	for _, d := range s.procs {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// resetPeakRSS resets every server process's VmHWM to its current
// resident set.
func (s *system) resetPeakRSS() error {
	for _, d := range s.procs {
		if err := resetPeakRSS(d.pid()); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB sums VmHWM over the server processes.
func (s *system) peakRSSMB() (float64, error) {
	var kb int64
	for _, d := range s.procs {
		v, err := peakRSSKB(d.pid())
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// usage is the growth of the servers' /metricsz counters and histograms
// over the measured phases, summed over processes.
type usage struct {
	counters map[string]float64
	hists    map[string]histGrowth
}

// histGrowth is a histogram's growth: observation count and summed
// seconds.
type histGrowth struct{ count, sumSec float64 }

func newUsage() usage {
	return usage{counters: map[string]float64{}, hists: map[string]histGrowth{}}
}

// add adds the growth between two snapshots of the same processes.
func (u *usage) add(before, after snapshot) {
	for i, rep := range after.reports {
		b := before.reports[i]
		for name, v := range rep.Counters {
			u.counters[name] += float64(v - b.Counters[name])
		}
		for name, h := range rep.Histograms {
			g := u.hists[name]
			g.count += float64(h.Count - b.Histograms[name].Count)
			g.sumSec += h.SumSec - b.Histograms[name].SumSec
			u.hists[name] = g
		}
	}
}

func (u usage) counter(name string) float64 { return u.counters[name] }
func (u usage) hist(name string) histGrowth { return u.hists[name] }
