// Package server turns the experiment apparatus into a long-running
// service: a job daemon that accepts experiment specs over HTTP
// (benchmark × scheme × fault-plan × options as JSON), schedules them
// on a bounded worker pool with backpressure, streams per-job
// telemetry, and answers repeated submissions from a content-addressed
// result cache — optimization as a central system service rather than
// a batch tool, in the spirit of Kistler & Franz's perpetual
// adaptation. One process serves many jobs, so the process-wide
// record-once/replay-many trace cache (internal/rtrace via
// internal/experiment) is shared across jobs: the first job to touch a
// benchmark records its architectural trace, and every later job
// replays it.
//
// The HTTP surface (full schemas and semantics in docs/API.md):
//
//	POST   /v1/jobs             submit a JobSpec; 429 + Retry-After when the queue is full
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        one job's status, per-run metadata, disposition
//	GET    /v1/jobs/{id}/result the job's result document (the cached bytes, verbatim)
//	GET    /v1/jobs/{id}/events the job's telemetry JSONL stream (follows while running)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /metrics             queue/worker/cache/instruction counters + wall histograms
//	GET    /healthz             readiness (503 while draining)
//
// Shutdown drains: submissions are refused with 503 while queued and
// running jobs finish, reusing the experiment layer's run isolation —
// a panicking job fails alone, and cancellation rides the same chunked
// engine drive as run deadlines.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/fault"
	"acedo/internal/server/cluster"
	"acedo/internal/server/store"
)

// Version is the daemon's protocol version, part of the result cache's
// engine-version string: bump it when job semantics change and stale
// cached results must stop matching.
const Version = "1"

// Job lifecycle states (JobStatus.State).
const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued = "queued"
	// StateRunning: executing on a worker.
	StateRunning = "running"
	// StateDone: finished; the result document is available.
	StateDone = "done"
	// StateFailed: finished with an error (JobStatus.Error).
	StateFailed = "failed"
	// StateCanceled: canceled by DELETE before completion.
	StateCanceled = "canceled"
)

// Config parameterises a Server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). Each worker
	// executes one job at a time; within a job, runs parallelise per
	// the experiment layer's own Parallelism default.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (0 = 16). A full queue rejects submissions with 429.
	QueueDepth int
	// CacheBytes bounds the content-addressed result cache (0 = 256 MiB).
	CacheBytes int64
	// EventLogBytes bounds one job's in-memory telemetry log
	// (0 = 64 MiB); past it, further events are counted and dropped.
	EventLogBytes int
	// MaxJobs bounds retained job records (0 = 1024); the oldest
	// finished jobs are evicted first.
	MaxJobs int
	// DataDir, when non-empty, makes the daemon crash-safe: finished
	// results persist to a disk-backed content-addressed store under
	// DataDir/results (write-through behind the in-memory cache, which
	// flips to LRU eviction), and accepted jobs are journaled to
	// DataDir/journal before they are acknowledged, so a restart
	// recovers cached results and requeues unfinished submissions.
	DataDir string
	// ServiceFaults, when non-nil, arms a deterministic service-level
	// fault plan (internal/fault): injected store write/fsync errors,
	// torn writes, HTTP handler latency and 500s, event-stream
	// disconnects, and peer-request drops/delays/500s. A nil plan
	// injects nothing and costs nothing.
	ServiceFaults *fault.Plan
	// Cluster, when non-nil, joins this daemon to a consistent-hash
	// ring of peers (internal/server/cluster): submissions whose
	// SpecHash another node owns are forwarded there, workers consult
	// the owner's store before executing, and job sub-resources proxy
	// across nodes. A nil Cluster is the single-node mode, byte-
	// identical to a daemon built before the cluster plane existed.
	Cluster *cluster.Config
	// Log, when non-nil, receives one line per job state change.
	Log io.Writer
}

// withDefaults fills zero fields with their defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.EventLogBytes <= 0 {
		c.EventLogBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// job is one submission's record: immutable identity plus
// mutex-guarded lifecycle state.
type job struct {
	id     string
	spec   JobSpec
	hash   string
	events *eventLog
	cancel chan struct{}

	mu        sync.Mutex
	state     string
	cached    bool
	result    []byte
	runs      []RunMeta
	errMsg    string
	wall      time.Duration
	cancelled bool // cancel channel closed
}

// terminal reports whether state is a finished state.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// status assembles the job's wire status document.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Cached:    j.cached,
		SpecHash:  j.hash,
		Spec:      j.spec,
		Error:     j.errMsg,
		WallMS:    float64(j.wall.Microseconds()) / 1e3,
		Runs:      j.runs,
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// JobStatus is the wire form of one job's state: lifecycle, identity
// (including the content-address the result cache keys on), error and
// per-run metadata, and the job's sub-resource URLs.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Cached   bool   `json:"cached,omitempty"`
	SpecHash string `json:"spec_hash"`
	// Spec is the normalised spec (defaults filled in).
	Spec  JobSpec `json:"spec"`
	Error string  `json:"error,omitempty"`
	// WallMS is the job's execution wall time (0 until finished; 0
	// forever for cache hits, which execute nothing).
	WallMS float64 `json:"wall_ms,omitempty"`
	// Runs carries per-run metadata: for an executed job, the runs it
	// performed; for a cache hit, the runs of the execution that
	// populated the cache entry.
	Runs      []RunMeta `json:"runs,omitempty"`
	ResultURL string    `json:"result_url,omitempty"`
	EventsURL string    `json:"events_url"`
}

// Server is the experiment job daemon: an http.Handler plus the worker
// pool and caches behind it. Create with New, serve with any
// http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *job
	cache   *resultCache
	metrics *metrics

	// Durability layer: nil without Config.DataDir. journalReplayed
	// is written once during recovery, before any handler goroutine
	// exists.
	store           *store.Store
	journal         *store.Journal
	svcFaults       *fault.Service
	journalReplayed uint64

	// cluster is the compiled cluster plane: nil without
	// Config.Cluster, which keeps every single-node path branch-cheap.
	cluster *cluster.Cluster

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for eviction
	seq      uint64
	draining bool

	workers sync.WaitGroup

	// runFn executes one job (tests substitute a stub).
	runFn func(spec JobSpec, sink *eventLog, cancel <-chan struct{}) ([]byte, []RunMeta, error)
}

// New builds a Server, recovers any durable state under
// Config.DataDir (valid stored results re-index, journaled-but-
// unfinished jobs requeue), and starts the worker pool. It fails only
// on an invalid service-fault plan or an unusable data directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	svc, err := fault.NewService(cfg.ServiceFaults)
	if err != nil {
		return nil, fmt.Errorf("server: service fault plan: %w", err)
	}
	clu, err := cluster.New(cfg.Cluster, svc)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var (
		st      *store.Store
		journal *store.Journal
		pending []store.Pending
	)
	if cfg.DataDir != "" {
		st, err = store.Open(filepath.Join(cfg.DataDir, "results"), engineVersion(), svc)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		journal, pending, err = store.OpenJournal(filepath.Join(cfg.DataDir, "journal"), svc)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		// Recovered jobs ride extra queue capacity so a journal
		// longer than the configured depth still replays in full;
		// the submit path enforces QueueDepth itself.
		queue:     make(chan *job, cfg.QueueDepth+len(pending)),
		cache:     newResultCache(cfg.CacheBytes, st != nil),
		metrics:   newMetrics(),
		store:     st,
		journal:   journal,
		svcFaults: svc,
		cluster:   clu,
		jobs:      make(map[string]*job),
	}
	s.runFn = s.runJob
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/cluster/store/{hash}", s.handleClusterStore)
	if st != nil {
		rep := st.Scan()
		s.logf("store: %d results recovered, %d quarantined, %d stale (%s)",
			rep.Recovered, rep.Quarantined, rep.Stale, st.Dir())
	}
	for _, p := range pending {
		s.recoverJob(p)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJob requeues one journaled-but-unfinished submission during
// boot, before the worker pool starts. Jobs whose result already sits
// in the durable store (the crash ate only the journal's done record)
// are retired without re-executing; jobs whose spec no longer
// normalises or hashes identically (the engine moved on underneath
// them) are retired too, because the result the submitter was
// promised can no longer be reproduced under that content address.
func (s *Server) recoverJob(p store.Pending) {
	retire := func(reason string) {
		if err := s.journal.Done(p.Hash); err != nil {
			s.logf("journal: retire %s: %v", shortHash(p.Hash), err)
		}
		if reason != "" {
			s.logf("journal: dropped %s: %s", shortHash(p.Hash), reason)
		}
	}
	var spec JobSpec
	if err := json.Unmarshal(p.Spec, &spec); err != nil {
		retire(fmt.Sprintf("unreadable spec: %v", err))
		return
	}
	spec, err := spec.Normalize()
	if err != nil {
		retire(fmt.Sprintf("invalid spec: %v", err))
		return
	}
	hash, err := SpecHash(spec)
	if err != nil || hash != p.Hash {
		retire("spec no longer matches its journaled content address")
		return
	}
	if _, ok, err := s.store.Get(hash); err == nil && ok {
		retire("") // finished before the crash; result is durable
		return
	}
	s.mu.Lock()
	s.seq++
	j := &job{
		id:     fmt.Sprintf("j%d", s.seq),
		spec:   spec,
		hash:   hash,
		events: newEventLog(s.cfg.EventLogBytes),
		cancel: make(chan struct{}),
		state:  StateQueued,
	}
	s.register(j)
	s.mu.Unlock()
	s.queue <- j
	s.journalReplayed++
	s.metrics.jobSubmitted(false)
	s.logf("job %s: requeued from journal (%s)", j.id, shortHash(hash))
}

// ServeHTTP dispatches to the daemon's routes (http.Handler), through
// the service fault seam: an armed plan can delay a request or answer
// it with an injected 500 before the handler runs. Rules filter on
// "METHOD /path" via their Unit field; with no plan armed this is a
// single nil test.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.svcFaults != nil {
		delay, fail := s.svcFaults.HTTP(r.Method + " " + r.URL.Path)
		if delay > 0 {
			time.Sleep(delay)
		}
		if fail {
			writeError(w, http.StatusInternalServerError, "injected service fault")
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the daemon: new submissions are refused with 503,
// queued and running jobs finish, and the worker pool exits. It
// returns nil when the drain completes, or the error carried by a
// deadline/cancellation on done (a channel that aborts the wait, e.g.
// time.After or a context's Done); the jobs keep running in that case.
func (s *Server) Shutdown(done <-chan struct{}) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		if s.journal != nil {
			if err := s.journal.Close(); err != nil {
				s.logf("journal: close: %v", err)
			}
		}
		return nil
	case <-done:
		return errors.New("server: shutdown aborted before drain completed")
	}
}

// ClusterRing returns the consistent-hash ring this node routes over,
// or nil for a single-node server. Callers can combine it with
// SpecHash to predict which node owns a spec.
func (s *Server) ClusterRing() *cluster.Ring {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.Ring()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// logf writes one progress line to the configured log.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "acelabd: "+format+"\n", args...)
	}
}

// worker executes queued jobs until the queue closes (Shutdown).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.workerBusy(1)
		s.execute(j)
		s.metrics.workerBusy(-1)
	}
}

// execute runs one dequeued job to a terminal state. Jobs canceled
// while queued are skipped (DELETE already finalised them).
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.mu.Unlock()
	if s.adoptFromOwner(j) {
		return
	}
	s.logf("job %s: running (benchmarks=%d schemes=%v)", j.id, len(j.spec.Benchmarks), j.spec.Schemes)

	start := time.Now()
	result, runs, err := s.runGuarded(j)
	wall := time.Since(start)

	state := StateDone
	var errMsg string
	if err != nil {
		errMsg = err.Error()
		state = StateFailed
		if errors.Is(err, experiment.ErrCanceled) {
			state = StateCanceled
		}
	}
	// Durability before visibility: the result is cached, persisted,
	// and journaled done before the terminal state is published, so a
	// client that has observed StateDone may rely on the result
	// surviving a crash-restart (the journal's lost-done recovery
	// path depends on this ordering too — a restart racing a
	// finishing job must find the store write already on disk).
	if state == StateDone {
		s.cache.put(j.hash, &cacheEntry{result: result, runs: runs})
		s.persist(j.hash, result, runs)
	}
	s.markDone(j.hash)
	j.mu.Lock()
	j.state = state
	j.result = result
	j.runs = runs
	j.errMsg = errMsg
	j.wall = wall
	j.mu.Unlock()
	j.events.close()
	s.metrics.jobFinished(state, wall, runs)
	s.logf("job %s: %s (%.2fs, %d runs)%s", j.id, state, wall.Seconds(), len(runs), errSuffix(errMsg))
}

// errSuffix formats an error for a log line ("" when empty).
func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// runGuarded invokes the job's run function under a recovery guard.
// The experiment layer already isolates simulation panics per run;
// this guard additionally contains faults in the service layer itself,
// so one corrupt job can never take a worker down.
func (s *Server) runGuarded(j *job) (result []byte, runs []RunMeta, err error) {
	defer func() {
		if r := recover(); r != nil {
			result = nil
			err = fmt.Errorf("server: job panicked: %v", r)
		}
	}()
	// The job's event log is always handed down: runJob attaches run
	// telemetry to it only when the spec requests events, but optimize
	// jobs stream their per-generation search progress regardless.
	return s.runFn(j.spec, j.events, j.cancel)
}

// persist write-throughs one finished result to the durable store
// (no-op without a data dir). A store failure is logged, not fatal:
// the in-memory tiers still serve the result for this life of the
// daemon, it just will not survive a restart.
func (s *Server) persist(hash string, result []byte, runs []RunMeta) {
	if s.store == nil {
		return
	}
	meta, err := json.Marshal(runs)
	if err == nil {
		err = s.store.Put(hash, store.Entry{Result: result, Meta: meta})
	}
	if err != nil {
		s.logf("store: put %s: %v", shortHash(hash), err)
	}
}

// markDone appends the job's done record to the journal (no-op
// without a data dir). Every terminal state counts as done — failed
// and canceled jobs must not be re-executed by a restart either.
func (s *Server) markDone(hash string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Done(hash); err != nil {
		s.logf("journal: done %s: %v", shortHash(hash), err)
	}
}

// lookupResult is the two-tier content-addressed lookup: the memory
// cache first, then the durable store, promoting a disk hit back into
// memory so its bytes keep serving without another read. A corrupt
// stored entry was already quarantined by Get and reads as a miss —
// the job re-executes and re-persists clean bytes.
func (s *Server) lookupResult(hash string) *cacheEntry {
	if e := s.cache.get(hash); e != nil {
		return e
	}
	if s.store == nil {
		return nil
	}
	ent, ok, err := s.store.Get(hash)
	if err != nil {
		s.logf("store: get %s: %v", shortHash(hash), err)
		return nil
	}
	if !ok {
		return nil
	}
	var runs []RunMeta
	if len(ent.Meta) > 0 {
		if err := json.Unmarshal(ent.Meta, &runs); err != nil {
			s.logf("store: get %s: bad run metadata: %v", shortHash(hash), err)
			runs = nil
		}
	}
	e := &cacheEntry{result: ent.Result, runs: runs}
	s.cache.put(hash, e)
	s.metrics.storeHit()
	return e
}

// handleSubmit is POST /v1/jobs: validate, answer from the result
// cache, or enqueue with backpressure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid job spec: %v", err))
		return
	}
	spec, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid job spec: %v", err))
		return
	}
	hash, err := SpecHash(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.forwardIfRemote(w, r, spec, hash) {
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.seq++
	j := &job{
		id:     fmt.Sprintf("j%d", s.seq),
		spec:   spec,
		hash:   hash,
		events: newEventLog(s.cfg.EventLogBytes),
		cancel: make(chan struct{}),
		state:  StateQueued,
	}
	if e := s.lookupResult(hash); e != nil {
		// Content-addressed hit (memory or disk tier): the job is
		// born finished with the cached bytes — byte-identical to the
		// execution that populated the entry — and nothing executes.
		j.state = StateDone
		j.cached = true
		j.result = e.result
		j.runs = e.runs
		j.events.close()
		s.register(j)
		s.mu.Unlock()
		s.metrics.jobSubmitted(true)
		s.logf("job %s: cache hit (%s)", j.id, shortHash(hash))
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	// Backpressure is checked against the configured depth, not the
	// channel's capacity (recovery may have sized the channel larger),
	// and before journaling, so a rejected submission leaves no journal
	// record behind. Under s.mu only workers drain the queue
	// concurrently, so a depth below the bound guarantees the send
	// cannot block.
	if depth := len(s.queue); depth >= s.cfg.QueueDepth {
		s.seq-- // not registered; reuse the ID
		s.mu.Unlock()
		retry := s.metrics.retryAfter(depth, s.cfg.Workers)
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued); retry after %s", depth, retry))
		return
	}
	if s.journal != nil {
		// Journal before acknowledging: the 202 is a durable promise,
		// so a submission that cannot be journaled is refused rather
		// than accepted into a state a crash would silently lose.
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = s.journal.Accept(hash, specJSON)
		}
		if jerr != nil {
			s.seq--
			s.mu.Unlock()
			s.logf("journal: accept %s: %v", shortHash(hash), jerr)
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("cannot journal submission: %v", jerr))
			return
		}
	}
	s.queue <- j
	s.register(j)
	s.mu.Unlock()
	s.metrics.jobSubmitted(false)
	s.logf("job %s: queued (%s)", j.id, shortHash(hash))
	writeJSON(w, http.StatusAccepted, j.status())
}

// shortHash abbreviates a spec hash for log lines.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// register records a job (caller holds s.mu) and evicts the oldest
// finished jobs past the retention bound.
func (s *Server) register(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		old := s.jobs[id]
		if len(s.jobs) > s.cfg.MaxJobs && old != nil {
			old.mu.Lock()
			done := terminal(old.state)
			old.mu.Unlock()
			if done {
				delete(s.jobs, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// jobByID resolves a path's job, writing 404 when unknown. A
// node-qualified ID ("j3@node-a") naming this node resolves locally;
// IDs naming other nodes never reach here (the handlers proxy them
// first).
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	if local, node := splitJobID(id); node != "" && s.cluster != nil && node == s.cluster.Self() {
		id = local
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return j
}

// handleList is GET /v1/jobs: every retained job's status, oldest
// first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.proxyJob(w, r, "") {
		return
	}
	if j := s.jobByID(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleResult is GET /v1/jobs/{id}/result: the result document bytes,
// verbatim. 202 while the job is queued or running, 409 for failed or
// canceled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.proxyJob(w, r, "/result") {
		return
	}
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result := j.state, j.result
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case StateQueued, StateRunning:
		writeError(w, http.StatusAccepted, fmt.Sprintf("job %s %s; no result yet", j.id, state))
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s %s; no result", j.id, state))
	}
}

// handleEvents is GET /v1/jobs/{id}/events: the job's telemetry JSONL
// stream. By default the response follows a live job until it
// finishes; ?follow=0 returns only what is buffered. ?offset=N skips
// the first N bytes of the log (clamped to what is buffered), so a
// client whose connection dropped mid-stream resumes where it left off
// instead of re-reading from the top. Jobs submitted without
// "events": true produce an empty stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.proxyJob(w, r, "/events") {
		return
	}
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	offset := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid offset %q", v))
			return
		}
		offset = j.events.clamp(n)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		chunk, closed := j.events.next(r.Context(), offset)
		if len(chunk) > 0 {
			if s.svcFaults != nil && s.svcFaults.StreamDisconnect() {
				// Deliver half the chunk, then abort the connection
				// without a clean close: the client sees a truncated
				// mid-stream disconnect (not a retryable
				// before-response failure) and must resume via
				// ?offset.
				w.Write(chunk[:len(chunk)/2])
				if flusher != nil {
					flusher.Flush()
				}
				panic(http.ErrAbortHandler)
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			offset += len(chunk)
			continue
		}
		if closed || !follow || r.Context().Err() != nil {
			return
		}
	}
}

// handleCancel is DELETE /v1/jobs/{id}: queued jobs finalise
// immediately; running jobs get their cancellation channel closed and
// finalise when the engine's chunked drive notices. Finished jobs are
// left as they are (the response reports their terminal state).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if s.proxyJob(w, r, "") {
		return
	}
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		if !j.cancelled {
			j.cancelled = true
			close(j.cancel)
		}
		j.mu.Unlock()
		j.events.close()
		s.markDone(j.hash)
		s.metrics.jobFinished(StateCanceled, 0, nil)
		s.logf("job %s: canceled while queued", j.id)
	case StateRunning:
		if !j.cancelled {
			j.cancelled = true
			close(j.cancel)
		}
		j.mu.Unlock()
		s.logf("job %s: cancellation requested", j.id)
	default:
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot()
	m.QueueDepth = len(s.queue)
	m.QueueCapacity = s.cfg.QueueDepth
	m.Workers = s.cfg.Workers
	m.Draining = s.Draining()
	m.CacheHits, m.CacheMisses, m.CacheEvictions, m.CacheEntries, m.CacheBytes = s.cache.stats()
	tc := experiment.CurrentTraceCacheStats()
	m.TraceCacheEntries = tc.Entries
	m.TraceCacheBytes = tc.Bytes
	if s.store != nil {
		m.StoreEntries, m.StoreBytes = s.store.Stats()
		m.JournalReplayed = s.journalReplayed
	}
	if s.cluster != nil {
		m.ClusterNode = s.cluster.Self()
		m.ClusterSize = s.cluster.Ring().Size()
		m.ClusterOwnedPct = 100 * s.cluster.Ring().Share(s.cluster.Self())
	}
	writeJSON(w, http.StatusOK, m)
}

// handleHealthz is GET /healthz: readiness. 200 while accepting jobs,
// 503 once draining. A durable daemon additionally reports its store
// integrity — how the startup scan went (entries recovered,
// quarantined, stale) plus any entries quarantined at runtime — and
// how many journaled jobs the last boot requeued. A clustered daemon
// also reports its ring identity and each peer's probed liveness
// ("ok", "draining", or "unreachable: <cause>"); an unreachable peer
// degrades routing, not this node's own readiness, so the status code
// reflects only local state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	out := struct {
		Status          string            `json:"status"`
		Store           *store.Report     `json:"store,omitempty"`
		JournalReplayed *uint64           `json:"journal_replayed,omitempty"`
		ClusterNode     string            `json:"cluster_node,omitempty"`
		Peers           map[string]string `json:"peers,omitempty"`
	}{Status: status}
	if s.store != nil {
		rep := s.store.Scan()
		out.Store = &rep
		out.JournalReplayed = &s.journalReplayed
	}
	if s.cluster != nil {
		out.ClusterNode = s.cluster.Self()
		// A peer's own probe is answered from local state only — see
		// cluster.ProbeHeader.
		if r.Header.Get(cluster.ProbeHeader) == "" {
			out.Peers = s.cluster.Liveness()
		}
	}
	writeJSON(w, code, out)
}

// writeJSON renders v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders the daemon's uniform error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: msg})
}
