package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/server"
	"acedo/internal/server/cluster"
	"acedo/internal/workload"
)

// serviceScales are the job scales the service traffic draws from. The
// 21 (benchmark, scale) traces total ~220 MB, so all of them stay in
// the process-wide trace cache once set-up has recorded them.
var serviceScales = []uint64{100, 150, 200}

// serviceSchemes are the scheme lists a job asks for: the default
// three-way comparison (nil, whose result is the acetables snapshot)
// and two flat run lists.
var serviceSchemes = [][]string{nil, {"baseline", "hotspot"}, {"baseline", "bbv", "wss"}}

// The traffic mix of the one closed-loop client: 10% cold submissions,
// 60% cached at the owner, 30% forwarded through a non-owner. One
// client, because with two a warm request often waits behind a cold
// job's replay on a two-core host, and the run-to-run spread of warm
// and cold latency roughly doubles. With the shares above, the warm
// median lies inside the cached class and the warm p99 inside the
// forwarded one, so each reads one path rather than the boundary
// between two.
const (
	coldShare   = 0.10
	cachedShare = 0.60
)

// setting is one simulation a job can ask for; jobs of one setting
// must return identical bytes whatever else their specs say.
type setting struct {
	bench   string
	scale   uint64
	schemes []string
}

// key names the setting in oracle maps and failure messages.
func (s setting) key() string {
	return fmt.Sprintf("%s/%d/%s", s.bench, s.scale, strings.Join(s.schemes, "+"))
}

// serviceSettings is the settings population: every suite benchmark ×
// scale × scheme list (or a two-setting sample for smoke tests).
func serviceSettings(tiny bool) []setting {
	if tiny {
		return []setting{{"jess", 200, nil}, {"jess", 200, serviceSchemes[1]}}
	}
	var out []setting
	for _, spec := range workload.Suite() {
		for _, sc := range serviceScales {
			for _, s := range serviceSchemes {
				out = append(out, setting{spec.Name, sc, s})
			}
		}
	}
	return out
}

// ringNode is one booted acelabd node.
type ringNode struct {
	id   string
	base string
	srv  *server.Server
	hs   *http.Server
}

// ring is an in-process 3-node acelabd cluster over loopback
// listeners, each node with one worker and its own data directory, so
// the result store's fsyncs and the job journal are on the cold path.
type ring struct {
	nodes  []*ringNode
	byID   map[string]*ringNode
	routes *cluster.Ring
	httpc  *http.Client
	serve  sync.WaitGroup
	// maxJobs is each node's retained job-record bound.
	maxJobs int
}

// defaultMaxJobs is the daemon's default job-record bound
// (server.Config.MaxJobs).
const defaultMaxJobs = 1024

// bootRing starts the three nodes under dir, each retaining at most
// maxJobs job records.
func bootRing(dir string, maxJobs int) (*ring, error) {
	ids := []string{"a", "b", "c"}
	peers := make(map[string]string, len(ids))
	lns := make([]net.Listener, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[id] = "http://" + ln.Addr().String()
	}
	r := &ring{byID: make(map[string]*ringNode), httpc: &http.Client{Timeout: 60 * time.Second}, maxJobs: maxJobs}
	for i, id := range ids {
		srv, err := server.New(server.Config{
			Workers: 1,
			MaxJobs: maxJobs,
			DataDir: filepath.Join(dir, id),
			Cluster: &cluster.Config{NodeID: id, Peers: peers},
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		n := &ringNode{id: id, base: peers[id], srv: srv, hs: &http.Server{Handler: srv}}
		r.nodes = append(r.nodes, n)
		r.byID[id] = n
		r.serve.Add(1)
		go func(ln net.Listener) {
			defer r.serve.Done()
			n.hs.Serve(ln)
		}(lns[i])
	}
	r.routes = r.nodes[0].srv.ClusterRing()
	return r, nil
}

// close stops the listeners, drains every node and waits for the
// serving goroutines to exit.
func (r *ring) close() {
	giveUp := make(chan struct{})
	t := time.AfterFunc(30*time.Second, func() { close(giveUp) })
	defer t.Stop()
	for _, n := range r.nodes {
		n.hs.Close()
		if err := n.srv.Shutdown(giveUp); err != nil {
			fmt.Fprintf(os.Stderr, "acebench: node %s: %v\n", n.id, err)
		}
	}
	r.serve.Wait()
	r.httpc.CloseIdleConnections()
}

// job is a submission the harness can repeat: its spec body, content
// address, owner and the bytes its first execution returned.
type job struct {
	set    setting
	body   []byte
	hash   string
	owner  string
	result []byte
}

// newJob renders a setting as a job spec. nonce goes into
// telemetry_interval, which changes the job's content address but not
// its simulation (the interval only matters with events on), so every
// cold submission misses the result cache while the simulations stay
// within the set-up's recorded traces.
func (r *ring) newJob(s setting, nonce uint64, noReplay bool) (*job, error) {
	spec := server.JobSpec{Benchmarks: []string{s.bench}, Schemes: s.schemes, Scale: s.scale,
		TelemetryInterval: nonce, NoReplay: noReplay}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := server.SpecHash(norm)
	if err != nil {
		return nil, err
	}
	return &job{set: s, body: body, hash: hash, owner: r.routes.Owner(hash)}, nil
}

// call is one finished job submission as a client saw it.
type call struct {
	status server.JobStatus
	result []byte
	// submit is the POST round trip; total runs from the POST to the
	// last result byte.
	submit, total time.Duration
	// failure is why the call does not count as a success ("" if it
	// does).
	failure string
}

// run submits j's body to node and reads the result: POST, then (for a
// job not born finished) GET /events until the stream closes at the
// terminal state, then GET /result. Spans go under trace; calls to a
// node that does not own the job are the cluster layer's. Transport
// errors are returned; HTTP-level failures land in call.failure.
func (r *ring) run(j *job, node string, tr *tracer, trace uint64) (call, error) {
	var c call
	layer := "server"
	if node != j.owner {
		layer = "cluster"
	}
	base := r.byID[node].base
	start := time.Now()
	_, end := tr.begin(trace, trace, layer, "server.submit")
	resp, err := r.httpc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		end()
		return c, err
	}
	err = json.NewDecoder(resp.Body).Decode(&c.status)
	resp.Body.Close()
	end()
	c.submit = time.Since(start)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		c.failure = fmt.Sprintf("submit: HTTP %d", resp.StatusCode)
		return c, nil
	}
	if err != nil {
		c.failure = fmt.Sprintf("submit: decode status: %v", err)
		return c, nil
	}
	if c.status.State != server.StateDone {
		_, end := tr.begin(trace, trace, layer, "server.events")
		err := r.drain(base + "/v1/jobs/" + c.status.ID + "/events")
		end()
		if err != nil {
			return c, err
		}
	}
	_, end = tr.begin(trace, trace, layer, "server.result")
	resp, err = r.httpc.Get(base + "/v1/jobs/" + c.status.ID + "/result")
	if err != nil {
		end()
		return c, err
	}
	c.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end()
	c.total = time.Since(start)
	if err != nil {
		return c, err
	}
	if resp.StatusCode != http.StatusOK {
		c.failure = fmt.Sprintf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.result))
	}
	return c, nil
}

// drain reads a followed event stream to its end.
func (r *ring) drain(url string) error {
	resp, err := r.httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// getJSON decodes the JSON document at path on node into v.
func (r *ring) getJSON(node, path string, v any) error {
	resp, err := r.httpc.Get(r.byID[node].base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// prime runs one default-comparison job per (benchmark, scale) of the
// settings population, which records every trace the traffic will
// replay. It returns the finished jobs (the first cached and forwarded
// draws) and how many runs recorded a trace.
func (r *ring) prime(settings []setting) ([]*job, int, error) {
	var jobs []*job
	recorded := 0
	seen := make(map[string]bool)
	for _, s := range settings {
		s.schemes = nil
		if seen[s.key()] {
			continue
		}
		seen[s.key()] = true
		j, err := r.newJob(s, 0, false)
		if err != nil {
			return nil, 0, err
		}
		c, err := r.run(j, j.owner, nil, 0)
		if err != nil {
			return nil, 0, err
		}
		if c.failure != "" {
			return nil, 0, fmt.Errorf("prime %s: %s", s.key(), c.failure)
		}
		var st server.JobStatus
		if err := r.getJSON(j.owner, "/v1/jobs/"+c.status.ID, &st); err != nil {
			return nil, 0, err
		}
		for _, run := range st.Runs {
			if run.Disposition == experiment.RunRecorded {
				recorded++
			}
		}
		j.result = c.result
		jobs = append(jobs, j)
	}
	return jobs, recorded, nil
}

// fill resubmits the primed jobs to their owners until every node that
// owns one holds more than r.maxJobs job records. From then on each
// submission also evicts the oldest record, as in a daemon that has
// been up for a while; without the fill, warm latency rises part-way
// through the timed phase, when the tables reach the bound.
func (r *ring) fill(primed []*job) error {
	count := make(map[string]int)
	for _, j := range primed {
		count[j.owner]++
	}
	for more := true; more; {
		more = false
		for _, j := range primed {
			if count[j.owner] > r.maxJobs {
				continue
			}
			more = true
			c, err := r.run(j, j.owner, nil, 0)
			if err != nil {
				return err
			}
			if c.failure != "" || !c.status.Cached {
				return fmt.Errorf("fill %s: not a cache hit: %s", j.set.key(), c.failure)
			}
			count[j.owner]++
		}
	}
	return nil
}

// serviceClient is the closed-loop client: it sends its next request
// only after the previous one finished. Its inputs are a pure function
// of the seed and the child index: the class and setting draws come
// from its own stream, and it repeats only jobs from the primed set or
// its own history. Cold jobs deal the settings without replacement —
// each pass over the population is a fresh seeded permutation — so
// every seed asks for the same mix of settings, in its own order.
type serviceClient struct {
	r      *ring
	tr     *tracer
	rng    *rand.Rand
	tiny   bool
	nonce  uint64
	sets   []setting
	deck   []int // settings left in the current pass, as indices into sets
	pool   []*job
	colds  []*job
	golden map[string][]byte // setting → bytes of its first execution
}

// op performs the client's k-th operation and reports its class,
// latency and any failure.
func (c *serviceClient) op(k int) (class string, ms float64, failure string, err error) {
	draw := c.rng.Float64()
	switch {
	case c.tiny:
		class = [...]string{"cold", "cached", "forwarded"}[k%3]
	case draw < coldShare:
		class = "cold"
	case draw < coldShare+cachedShare:
		class = "cached"
	default:
		class = "forwarded"
	}
	var j *job
	node := ""
	if class == "cold" {
		c.nonce++
		if len(c.deck) == 0 {
			c.deck = c.rng.Perm(len(c.sets))
		}
		s := c.sets[c.deck[0]]
		c.deck = c.deck[1:]
		if j, err = c.r.newJob(s, c.nonce, false); err != nil {
			return class, 0, "", err
		}
		node = j.owner
	} else {
		j = c.pool[c.rng.Intn(len(c.pool))]
		node = j.owner
		if class == "forwarded" {
			others := make([]string, 0, 2)
			for _, n := range c.r.nodes {
				if n.id != j.owner {
					others = append(others, n.id)
				}
			}
			node = others[c.rng.Intn(len(others))]
		}
	}
	trace, end := c.tr.begin(0, 0, "acebench", "service."+class)
	res, err := c.r.run(j, node, c.tr, trace)
	end()
	if err != nil {
		return class, 0, "", err
	}
	ms = millis(res.total)
	failure = res.failure
	switch {
	case failure != "":
	case class == "cold":
		j.result = res.result
		if want, ok := c.golden[j.set.key()]; ok && !bytes.Equal(res.result, want) {
			failure = "cold result differs from an earlier job of the same setting"
		} else if !ok {
			c.golden[j.set.key()] = res.result
		}
		c.pool = append(c.pool, j)
		c.colds = append(c.colds, j)
	case !res.status.Cached:
		failure = "resubmission was not served from the result cache"
	case !bytes.Equal(res.result, j.result):
		failure = "cached result differs from its cold original"
	}
	if failure != "" {
		failure = fmt.Sprintf("%s %s via %s: %s", class, j.set.key(), node, failure)
	}
	return class, ms, failure, nil
}

// noReplayChecks is how many cold jobs each service child re-executes
// directly after its timed phase.
const noReplayChecks = 4

// serviceChild boots the ring, primes it, then runs the closed-loop
// client for cfg.Seconds (20 operations at smoke-test size). A cold
// operation submits a never-seen job to its owner; a cached one
// resubmits a finished job to its owner; a forwarded one resubmits it
// through a non-owner, which forwards the submission and proxies the
// result. After the timed phase, a seeded sample of cold jobs is
// resubmitted with no_replay and must return identical bytes.
func serviceChild(env *childEnv) (*childResult, error) {
	dir := filepath.Join(env.cfg.Dir, fmt.Sprintf("service-%d", env.cfg.Index))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	maxJobs := defaultMaxJobs
	if env.cfg.Tiny {
		maxJobs = 16
	}
	r, err := bootRing(dir, maxJobs)
	if err != nil {
		return nil, err
	}
	defer r.close()
	sets := serviceSettings(env.cfg.Tiny)
	primed, recorded, err := r.prime(sets)
	if err != nil {
		return nil, err
	}
	if err := r.fill(primed); err != nil {
		return nil, err
	}
	c := &serviceClient{
		r: r, tr: env.tr, tiny: env.cfg.Tiny, sets: sets,
		rng:    rand.New(rand.NewSource(env.cfg.Seed*1_000_003 + int64(env.cfg.Index))),
		nonce:  uint64(env.cfg.Index+1) << 32,
		pool:   append([]*job(nil), primed...),
		golden: make(map[string][]byte),
	}
	for _, j := range primed {
		c.golden[j.set.key()] = j.result
	}
	env.ready()

	res := &childResult{Recorded: recorded}
	deadline := time.Now().Add(time.Duration(env.cfg.Seconds * float64(time.Second)))
	start := time.Now()
	for k := 0; ; k++ {
		if env.cfg.Tiny && k == 20 || !env.cfg.Tiny && !time.Now().Before(deadline) {
			break
		}
		class, ms, failure, err := c.op(k)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		switch {
		case failure != "":
			res.fail("%s", failure)
		case class == "cold":
			res.Cold = append(res.Cold, ms)
		default:
			res.Warm = append(res.Warm, ms)
		}
	}
	res.DoneWall = time.Since(start).Seconds()
	res.Done = float64(res.Attempted)

	// Oracle: direct execution of a sample of cold jobs.
	check := rand.New(rand.NewSource(env.cfg.Seed + int64(env.cfg.Index)))
	for n := 0; n < noReplayChecks && len(c.colds) > 0; n++ {
		orig := c.colds[check.Intn(len(c.colds))]
		j, err := r.newJob(orig.set, 1<<62|uint64(check.Int63n(1<<30)), true)
		if err != nil {
			return nil, err
		}
		trace, end := env.tr.begin(0, 0, "acebench", "service.no_replay")
		got, err := r.run(j, j.owner, env.tr, trace)
		end()
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if got.failure != "" {
			res.fail("no_replay %s: %s", orig.set.key(), got.failure)
		} else if !bytes.Equal(got.result, orig.result) {
			res.fail("no_replay %s: direct execution differs from the replayed result", orig.set.key())
		}
	}
	return res, nil
}
