// Command acelabd is the experiment job daemon: it serves the
// apparatus in internal/experiment over HTTP, accepting experiment
// jobs (benchmark × scheme × fault-plan × options as JSON), running
// them on a bounded worker pool, streaming their telemetry, and
// answering repeated submissions from a content-addressed result
// cache. See docs/API.md for the HTTP surface and cmd/acelab for the
// matching client.
//
// Beyond fixed scheme lists, a job spec with an "optimize" clause runs
// a metaheuristic configuration search (internal/optimize) per
// benchmark, evaluating every candidate as a replay of the
// once-recorded benchmark stream and streaming search progress on the
// job's event log.
//
//	acelabd -addr :8080
//	curl -s -X POST localhost:8080/v1/jobs -d '{"benchmarks":["gzip"]}'
//	curl -s -X POST localhost:8080/v1/jobs -d '{"benchmarks":["gzip"],"optimize":{}}'
//
// A set of daemons forms a cluster when each is started with -node-id
// and the full -peers membership (docs/OPERATIONS.md walks through a
// deployment):
//
//	acelabd -addr :8081 -node-id a -peers a=http://h1:8081,b=http://h2:8081
//
// Submissions then route to the consistent-hash owner of each spec's
// content address, so every distinct experiment executes and caches
// once cluster-wide; any node accepts any request.
//
// SIGINT/SIGTERM drains gracefully: new submissions are refused with
// 503 while queued and running jobs finish.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"acedo/internal/fault"
	"acedo/internal/server"
	"acedo/internal/server/cluster"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "job queue depth (0 = default 16)")
		cacheMB   = flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = default 256)")
		maxJobs   = flag.Int("max-jobs", 0, "retained job records (0 = default 1024)")
		dataDir   = flag.String("data-dir", "", "crash-safe mode: persist results and journal jobs under this directory")
		svcFaults = flag.String("service-faults", "", "JSON fault plan injecting service-level faults (disk errors, torn writes, HTTP latency/500s, stream disconnects)")
		drain     = flag.Duration("drain-timeout", 10*time.Minute, "max wait for in-flight jobs on shutdown")
		quiet     = flag.Bool("q", false, "suppress per-job log lines")
		nodeID    = flag.String("node-id", "", "this node's cluster identity (requires -peers)")
		peers     = flag.String("peers", "", "cluster membership as id=url,id=url,... including this node; arms consistent-hash job routing")
	)
	flag.Parse()

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	var plan *fault.Plan
	if *svcFaults != "" {
		var err error
		plan, err = fault.LoadPlan(*svcFaults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acelabd: %v\n", err)
			os.Exit(1)
		}
	}
	clu, err := parsePeers(*nodeID, *peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acelabd: %v\n", err)
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheBytes:    *cacheMB << 20,
		MaxJobs:       *maxJobs,
		DataDir:       *dataDir,
		ServiceFaults: plan,
		Cluster:       clu,
		Log:           logw,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "acelabd: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "acelabd: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "acelabd: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "acelabd: serve: %v\n", err)
		os.Exit(1)
	}

	// Refuse new jobs and wait for in-flight ones, then stop listening.
	deadline := make(chan struct{})
	time.AfterFunc(*drain, func() { close(deadline) })
	if err := srv.Shutdown(deadline); err != nil {
		fmt.Fprintf(os.Stderr, "acelabd: %v\n", err)
		httpSrv.Close()
		os.Exit(1)
	}
	httpSrv.Close()
	fmt.Fprintln(os.Stderr, "acelabd: drained")
}

// parsePeers compiles -node-id and -peers into a cluster config. Both
// must be given together; the membership string is id=url pairs,
// comma-separated, and must include this node's own ID. Node IDs may
// not contain '@' — the daemon qualifies cross-node job IDs as
// "j3@node", splitting on the last '@'.
func parsePeers(nodeID, peers string) (*cluster.Config, error) {
	if nodeID == "" && peers == "" {
		return nil, nil
	}
	if nodeID == "" || peers == "" {
		return nil, fmt.Errorf("-node-id and -peers must be given together")
	}
	m := make(map[string]string)
	for _, pair := range strings.Split(peers, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers: bad entry %q (want id=url)", pair)
		}
		if strings.ContainsAny(id, "@/") {
			return nil, fmt.Errorf("-peers: node ID %q may not contain '@' or '/'", id)
		}
		if _, dup := m[id]; dup {
			return nil, fmt.Errorf("-peers: duplicate node ID %q", id)
		}
		m[id] = url
	}
	if _, ok := m[nodeID]; !ok {
		return nil, fmt.Errorf("-peers must include this node's own ID %q", nodeID)
	}
	return &cluster.Config{NodeID: nodeID, Peers: m}, nil
}
