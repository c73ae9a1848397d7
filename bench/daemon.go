package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is one lred child process. Its standard error (startup lines and
// the access log of the shipped defaults) is drained continuously; the
// last lines are kept for error messages.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // the Wait result, valid after done is closed

	mu   sync.Mutex
	tail []string
}

var servingOn = regexp.MustCompile(`serving on http://(\S+)`)

// startDaemon execs lred with args and returns once the process has
// logged its listen address.
func startDaemon(bin, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	// If the benchmark dies, its daemons die with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found {
				if m := servingOn.FindStringSubmatch(line); m != nil {
					found = true
					addr <- m[1]
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		// Keep reading past an over-long line so the daemon never blocks
		// on a full pipe.
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-drained
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, d.err, d.lastLines())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not log a listen address within 60 s\n%s", name, d.lastLines())
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) base() string { return "http://" + d.addr }

// stop sends SIGTERM, which makes lred drain and exit 0, and waits. A
// daemon still running after 20 s is killed and reported.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited early: %v\n%s", d.name, d.err, d.lastLines())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", d.name, err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 20 s", d.name)
	}
	if d.err != nil {
		return fmt.Errorf("%s: %v\n%s", d.name, d.err, d.lastLines())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) procFile(name string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", d.cmd.Process.Pid, name))
	return string(data), err
}

// cpuTicks is the daemon's user+system CPU time so far, in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	text, err := d.procFile("stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(text)
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// metrics fetches the daemon's /metricsz report.
func (d *daemon) metrics(client *http.Client) (*obs.Report, error) {
	resp, err := client.Get(d.base() + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metricsz: status %d", d.name, resp.StatusCode)
	}
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s /metricsz: %w", d.name, err)
	}
	return &rep, nil
}

// waitReady polls /readyz until it answers 200. For a coordinator the
// answer must also carry a distributed generation of at least 1.
func waitReady(client *http.Client, d *daemon, coordinator bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := readyOnce(client, d, coordinator)
		if ok {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited while starting: %v\n%s", d.name, d.err, d.lastLines())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %s (last: %v)\n%s", d.name, timeout, err, d.lastLines())
		}
		time.Sleep(time.Millisecond)
	}
}

func readyOnce(client *http.Client, d *daemon, coordinator bool) (bool, error) {
	resp, err := client.Get(d.base() + "/readyz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Generation int64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if coordinator && body.Generation < 1 {
		return false, errors.New("no distributed generation yet")
	}
	return true, nil
}
