// Command lrestat is a top-like live view of a running lred daemon: it
// polls GET /metricsz (the JSON metrics report) and redraws a terminal
// dashboard of the serving tier's RED metrics — per-endpoint request
// rates and latency quantiles over the rolling 1m/5m windows, error and
// degradation rates, and admission (requests in flight, 429s).
//
// Usage:
//
//	lrestat -addr 127.0.0.1:8080              # redraw every 2s until ^C
//	lrestat -addr 127.0.0.1:8080 -once        # print one snapshot and exit
//
// lrestat needs nothing beyond the daemon's own /metricsz endpoint; the
// same data is available to Prometheus via /metricsz?format=prom.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrestat: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "lred address (host:port or http:// URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		rep, err := fetch(client, base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(render(rep, base))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		rep, err := fetch(client, base)
		// Clear screen + home; errors render in place of the dashboard so
		// a restarting daemon shows as a blip, not an exit.
		fmt.Print("\x1b[H\x1b[2J")
		if err != nil {
			fmt.Printf("lrestat — %s\n\n  unreachable: %v\n", base, err)
		} else {
			fmt.Print(render(rep, base))
		}
		fmt.Printf("\n%s  (every %s, ^C to quit)\n", time.Now().Format("15:04:05"), *interval)
		select {
		case <-ctx.Done():
			fmt.Println()
			os.Exit(0)
		case <-tick.C:
		}
	}
}

func fetch(client *http.Client, base string) (*obs.Report, error) {
	resp, err := client.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: status %d", resp.StatusCode)
	}
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("/metricsz: %w", err)
	}
	return &rep, nil
}
