// serving: the online-scoring workflow end to end, in one process — train
// a tiny battery, export its bundle with ExportModels, stand up the
// internal/serve server (the same registry + scoring machinery cmd/lred
// wraps), then act as a client: score an utterance by phone
// lattice over HTTP, hot-reload a retrained bundle while requests are in
// flight, and drain gracefully. Part two turns on the tier-1 cascade
// fast path (`lred -cascade`) and shows both a tier-1 exit and a
// transparent escalation. Part three scales the same bundle out to a
// two-worker scatter–gather fleet (internal/cluster, what
// `lred -role=coordinator|worker` wraps), kills a worker mid-service,
// and shows survivor fusion degrading the response instead of failing it.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)

	// 1. Train the batch pipeline and export the serving bundle.
	fmt.Println("== training (scale=tiny) and exporting the bundle ==")
	p := experiments.BuildPipeline(experiments.ScaleTiny, 42)
	dir, err := os.MkdirTemp("", "serving-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	m, err := p.ExportModels(dir, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle: %d front-ends %v, %d languages, fusion=%v\n\n",
		len(m.FrontEnds), m.FrontEnds, m.NumLanguages, m.Fusion)

	// 2. Start the scoring server on a loopback port. cmd/lred does
	// exactly this plus signal wiring.
	s, err := serve.New(serve.Config{ModelDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("== serving on %s ==\n", base)

	var ready map[string]any
	getJSON(base+"/readyz", &ready)
	fmt.Printf("readyz: %v\n\n", ready)

	// 3. Score an utterance by phone lattice: the client ships posterior
	// slots for one front-end; the server rebuilds the n-gram supervector,
	// applies TFLLR, and runs the one-vs-rest SVMs.
	fe := m.FrontEnds[0]
	req := serve.ScoreRequest{
		ID: "utt-0",
		FrontEnds: map[string]serve.FrontEndInput{
			fe: {Lattice: [][]serve.Slot{
				{{Phone: 3, Prob: 0.8}, {Phone: 9, Prob: 0.2}},
				{{Phone: 14, Prob: 1.0}},
				{{Phone: 3, Prob: 0.6}, {Phone: 21, Prob: 0.4}},
				{{Phone: 7, Prob: 0.9}, {Phone: 2, Prob: 0.1}},
			}},
		},
	}
	var res serve.ScoreResponse
	postJSON(base+"/v1/score", req, &res)
	fmt.Printf("== scored %q against model v%d ==\n", res.ID, res.ModelVersion)
	top := 0
	for k := range res.Scores[fe] {
		if res.Scores[fe][k] > res.Scores[fe][top] {
			top = k
		}
	}
	fmt.Printf("front-end %s top language: %s (%.3f)\n", fe, res.Languages[top], res.Scores[fe][top])
	fmt.Printf("best (server pick): %s\n\n", res.Best)

	// 4. Hot reload: re-export (a retrain in real life) and flip the
	// registry. In-flight requests keep the model they were admitted with;
	// new ones see v2.
	fmt.Println("== hot reload ==")
	if _, err := p.ExportModels(dir, ""); err != nil {
		log.Fatal(err)
	}
	var rel map[string]any
	postJSON(base+"/-/reload", struct{}{}, &rel)
	fmt.Printf("now serving model v%v\n", rel["model_version"])
	var res2 serve.ScoreResponse
	postJSON(base+"/v1/score", req, &res2)
	fmt.Printf("same request now answered by v%d\n\n", res2.ModelVersion)

	// 5. Graceful drain: cancel the serve context (what SIGTERM does in
	// cmd/lred); admitted work finishes, then Run returns nil.
	fmt.Println("== draining ==")
	shutdown()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")

	cascadeWalkthrough(dir, req.FrontEnds[fe].Lattice)
	fleetWalkthrough(dir, m.FrontEnds, req.FrontEnds[fe].Lattice)
}

// cascadeWalkthrough restarts the same bundle with the tier-1 cascade
// fast path on (`lred -cascade`): ExportModels already trained a cheap
// phone-LM classifier into the bundle, and a request whose 1-best
// margin clears the calibrated bar is answered without ever touching
// the supervector/SVM/fusion path. The margin policy here forces both
// outcomes so the annotation is visible: "+inf" answers everything at
// tier 1, "-inf" escalates everything (bit-identical to no cascade —
// the transparency contract TESTING.md's cascade suite pins).
func cascadeWalkthrough(dir string, lattice [][]serve.Slot) {
	fmt.Println("\n== part two: cascade fast path ==")
	for _, margin := range []string{"+inf", "-inf"} {
		s, err := serve.New(serve.Config{
			ModelDir: dir,
			Cascade:  serve.CascadeConfig{Enabled: true, Margin: margin},
		})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ctx, shutdown := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Run(ctx, ln) }()

		m := s.Registry().Current()
		req := serve.ScoreRequest{ID: "utt-casc", FrontEnds: map[string]serve.FrontEndInput{
			m.Bundle.Cascade.FrontEnd: {Lattice: lattice},
		}}
		var res serve.ScoreResponse
		postJSON("http://"+ln.Addr().String()+"/v1/score", req, &res)
		fmt.Printf("margin %s: best=%s cascade={exited:%v tier:%q reason:%q}\n",
			margin, res.Best, res.Cascade.Exited, res.Cascade.Tier, res.Cascade.Reason)

		shutdown()
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
}

// fleetWalkthrough scales the same bundle out: two shared-nothing shard
// workers, a coordinator that scatters per-front-end RPCs and gathers
// them into one response, and a worker kill demonstrating the
// degradation contract (`lred -role=coordinator -peers=...` wraps
// exactly this).
func fleetWalkthrough(dir string, frontEnds []string, lattice [][]serve.Slot) {
	// A fleet request covers the full battery so the scatter spans both
	// workers and fusion has every subsystem to draw on.
	req := serve.ScoreRequest{ID: "utt-fleet", FrontEnds: make(map[string]serve.FrontEndInput)}
	for _, fe := range frontEnds {
		req.FrontEnds[fe] = serve.FrontEndInput{Lattice: lattice}
	}
	fmt.Println("\n== part three: two-worker scatter–gather fleet ==")

	// 1. Start two workers, each with its own lifecycle so one can be
	// killed later. A worker begins empty (it owns no model until the
	// coordinator assigns it a shard of the bundle) and serves 503 until
	// its first push.
	var peers []string
	var kill []context.CancelFunc
	for i := 0; i < 2; i++ {
		spool, err := os.MkdirTemp("", "serving-example-spool")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(spool)
		w, err := cluster.NewWorker(serve.Config{ModelDir: spool})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		wctx, stop := context.WithCancel(context.Background())
		defer stop()
		go w.Run(wctx, ln)
		peers = append(peers, ln.Addr().String())
		kill = append(kill, stop)
	}
	fmt.Printf("workers: %v\n", peers)

	// 2. The coordinator loads the bundle, keeping no scoring weights,
	// pushes every worker the exported bundle.gob with a manifest naming
	// its front-ends (front-end i → worker i%n), and pins the fleet to
	// one cluster generation so responses never mix model versions.
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Serve:        serve.Config{ModelDir: dir},
		Peers:        peers,
		ShardTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if err := coord.Distribute(ctx); err != nil {
		log.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go coord.Run(ctx, cln)
	base := "http://" + cln.Addr().String()

	var cz cluster.Clusterz
	getJSON(base+"/clusterz", &cz)
	fmt.Printf("generation %d, shard assignment:\n", cz.Generation)
	for _, p := range cz.Peers {
		fmt.Printf("  %s → %v\n", p.Addr, p.FrontEnds)
	}

	// 3. Same client request, same wire API — the coordinator scatters
	// each front-end to the worker that owns it and gathers the scores.
	var res serve.ScoreResponse
	postJSON(base+"/v1/score", req, &res)
	fmt.Printf("fleet scored %q: best=%s degraded=%v\n", res.ID, res.Best, res.Degraded)

	// 4. Kill one worker. The missed shard degrades the response exactly
	// like a failed front-end in a standalone server: its scores drop
	// out, fusion rescales over the survivors, and the client still gets
	// a 2xx with the loss spelled out on the wire.
	fmt.Println("== killing worker 0 ==")
	kill[0]()
	time.Sleep(300 * time.Millisecond) // let its listener close
	resp, err := http.Post(base+"/v1/score", "application/json", marshalBody(req))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var degraded serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status %d, degraded=%v, surviving=%v\n", resp.StatusCode, degraded.Degraded, degraded.Surviving)
}

func marshalBody(v any) io.Reader {
	data, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return bytes.NewReader(data)
}

func postJSON(url string, in, out any) {
	body, err := json.Marshal(in)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
