package server

import (
	"sync"
	"time"
)

// wallBucketsMS are the per-benchmark wall-time histogram bounds in
// milliseconds (a run lands in the first bucket whose bound it does
// not exceed; the implicit last bucket is unbounded). Log-spaced from
// 1 ms to 60 s — replayed runs cluster at the low end, paper-scale
// direct runs at the high end.
var wallBucketsMS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000}

// Histogram is one wall-time distribution in /metrics: Counts[i] is
// the number of observations not exceeding BoundsMS[i], with one extra
// overflow bucket at the end, plus the observation count and sum.
type Histogram struct {
	BoundsMS []float64 `json:"bounds_ms"`
	Counts   []uint64  `json:"counts"`
	Count    uint64    `json:"count"`
	SumMS    float64   `json:"sum_ms"`
}

// observe records one duration.
func (h *Histogram) observe(d time.Duration) {
	ms := float64(d.Microseconds()) / 1e3
	i := 0
	for i < len(h.BoundsMS) && ms > h.BoundsMS[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.SumMS += ms
}

// Metrics is the /metrics document: queue and worker state, job and
// cache counters, total simulated instructions, and per-benchmark
// wall-time histograms. It is a point-in-time snapshot — the server
// assembles one per request.
type Metrics struct {
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	Workers       int  `json:"workers"`
	BusyWorkers   int  `json:"busy_workers"`
	Draining      bool `json:"draining"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsCached    uint64 `json:"jobs_cached"`

	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
	// CacheEvictions counts memory-tier evictions; always 0 without a
	// data dir, where the cache never evicts.
	CacheEvictions uint64 `json:"cache_evictions"`

	// StoreEntries/StoreBytes gauge the durable result store's indexed
	// entries and their on-disk footprint; StoreHits counts lookups the
	// memory tier missed but the disk tier answered; JournalReplayed
	// counts jobs this boot requeued from the journal. All stay 0 (and
	// the store gauges absent) without a data dir.
	StoreEntries    int    `json:"store_entries,omitempty"`
	StoreBytes      int64  `json:"store_bytes,omitempty"`
	StoreHits       uint64 `json:"store_hits,omitempty"`
	JournalReplayed uint64 `json:"journal_replayed,omitempty"`

	// The trace-cache gauges mirror the experiment layer's
	// process-wide record-once cache (experiment.CurrentTraceCacheStats):
	// resident entries and their memory charge. Zero gauges are elided
	// (schema-additive).
	TraceCacheEntries int `json:"trace_cache_entries,omitempty"`
	TraceCacheBytes   int `json:"trace_cache_bytes,omitempty"`

	// Cluster gauges, present only when the daemon runs with -peers
	// (single-node /metrics stays byte-identical). ClusterNode is this
	// node's ring identity, ClusterSize the member count, and
	// ClusterOwnedPct the percentage of the hash space this node owns.
	// JobsForwarded counts submissions this node routed to their
	// hash-owner; JobsForwardReceived counts forwarded submissions that
	// landed here; ForwardFailures counts forwards that exhausted their
	// retries and degraded to local execution. PeerStoreHits counts
	// results adopted byte-identically from the owner's store before
	// executing; PeerStoreMisses counts adoption attempts that came back
	// empty (or unreachable) and fell through to execution.
	ClusterNode         string  `json:"cluster_node,omitempty"`
	ClusterSize         int     `json:"cluster_size,omitempty"`
	ClusterOwnedPct     float64 `json:"cluster_owned_pct,omitempty"`
	JobsForwarded       uint64  `json:"jobs_forwarded,omitempty"`
	JobsForwardReceived uint64  `json:"jobs_forward_received,omitempty"`
	ForwardFailures     uint64  `json:"forward_failures,omitempty"`
	PeerStoreHits       uint64  `json:"peer_store_hits,omitempty"`
	PeerStoreMisses     uint64  `json:"peer_store_misses,omitempty"`

	// InstrSimulated totals the retired instructions of every executed
	// run (cache hits add nothing — the cache-determinism tests key on
	// this staying put across repeated submissions).
	InstrSimulated uint64 `json:"instr_simulated"`

	// BenchWallMS histograms executed runs' wall times per benchmark.
	BenchWallMS map[string]*Histogram `json:"bench_wall_ms"`

	// OptimizeBest reports each benchmark's best-so-far from its most
	// recent configuration search, updated live while optimize jobs run
	// (absent until the first optimize job; schema-additive).
	OptimizeBest map[string]*OptimizeStatus `json:"optimize_best,omitempty"`
}

// OptimizeStatus is one benchmark's search progress in /metrics: the
// objective being minimised, the best value found so far, how many
// distinct candidates have been evaluated, and the best genome.
type OptimizeStatus struct {
	Objective string  `json:"objective"`
	Best      float64 `json:"best"`
	Evaluated uint64  `json:"evaluated"`
	Config    []int   `json:"config,omitempty"`
}

// metrics is the server's mutable counter state behind Metrics.
type metrics struct {
	mu sync.Mutex

	busy      int
	submitted uint64
	completed uint64
	failed    uint64
	canceled  uint64
	cached    uint64
	instr     uint64
	storeHits uint64

	forwarded       uint64
	forwardReceived uint64
	forwardFailures uint64
	peerHits        uint64
	peerMisses      uint64

	benchWall    map[string]*Histogram
	optimizeBest map[string]*OptimizeStatus

	// jobEWMA is the exponentially weighted moving average of executed
	// job wall time in nanoseconds, feeding the Retry-After estimate.
	// Kept as float64: integer division truncates the per-update delta
	// toward zero, so a time.Duration average moves by 0 whenever the
	// delta is under alpha nanoseconds and the estimate sticks at
	// whatever the early jobs set it to.
	jobEWMA float64
}

func newMetrics() *metrics {
	return &metrics{benchWall: make(map[string]*Histogram)}
}

// workerBusy adjusts the busy-worker gauge by delta.
func (m *metrics) workerBusy(delta int) {
	m.mu.Lock()
	m.busy += delta
	m.mu.Unlock()
}

// storeHit counts one lookup served by the disk tier.
func (m *metrics) storeHit() {
	m.mu.Lock()
	m.storeHits++
	m.mu.Unlock()
}

// forwardOut counts one submission routed to its hash-owner.
func (m *metrics) forwardOut() {
	m.mu.Lock()
	m.forwarded++
	m.mu.Unlock()
}

// forwardIn counts one forwarded submission landing on this node.
func (m *metrics) forwardIn() {
	m.mu.Lock()
	m.forwardReceived++
	m.mu.Unlock()
}

// forwardFailed counts one forward that exhausted its retries and
// degraded to local execution.
func (m *metrics) forwardFailed() {
	m.mu.Lock()
	m.forwardFailures++
	m.mu.Unlock()
}

// peerStore counts one peer-store adoption attempt's outcome.
func (m *metrics) peerStore(hit bool) {
	m.mu.Lock()
	if hit {
		m.peerHits++
	} else {
		m.peerMisses++
	}
	m.mu.Unlock()
}

// jobSubmitted counts one accepted submission (cached hits included).
func (m *metrics) jobSubmitted(cached bool) {
	m.mu.Lock()
	m.submitted++
	if cached {
		m.cached++
	}
	m.mu.Unlock()
}

// jobAdopted records one job finished by adopting the hash-owner's
// stored result: completed and served from cache, with no wall-time
// observation, no EWMA update, and — the cluster's cache-determinism
// contract — no instruction accounting, because nothing executed.
func (m *metrics) jobAdopted() {
	m.mu.Lock()
	m.completed++
	m.cached++
	m.mu.Unlock()
}

// jobFinished records one executed job's outcome, its wall time, and
// its runs' instruction counts and per-bench wall times.
func (m *metrics) jobFinished(state string, wall time.Duration, runs []RunMeta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case StateDone:
		m.completed++
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	const alpha = 4 // EWMA decay 1/4: a few jobs settle the estimate
	if m.jobEWMA == 0 {
		m.jobEWMA = float64(wall)
	} else {
		m.jobEWMA += (float64(wall) - m.jobEWMA) / alpha
	}
	for _, r := range runs {
		m.instr += r.Instr
		h := m.benchWall[r.Benchmark]
		if h == nil {
			h = &Histogram{
				BoundsMS: wallBucketsMS,
				Counts:   make([]uint64, len(wallBucketsMS)+1),
			}
			m.benchWall[r.Benchmark] = h
		}
		h.observe(time.Duration(r.WallMS * float64(time.Millisecond)))
	}
}

// optimizeProgress records one benchmark's best-so-far search state
// for the /metrics OptimizeBest gauge.
func (m *metrics) optimizeProgress(bench, objective string, best float64, evaluated uint64, config []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.optimizeBest == nil {
		m.optimizeBest = make(map[string]*OptimizeStatus)
	}
	m.optimizeBest[bench] = &OptimizeStatus{
		Objective: objective,
		Best:      best,
		Evaluated: evaluated,
		Config:    append([]int(nil), config...),
	}
}

// retryAfter estimates how long a rejected client should wait before
// resubmitting: the queue's expected drain time given the average job
// duration and worker count, clamped to [1s, 10min].
func (m *metrics) retryAfter(queued, workers int) time.Duration {
	m.mu.Lock()
	ewma := time.Duration(m.jobEWMA)
	m.mu.Unlock()
	if ewma <= 0 {
		ewma = time.Second
	}
	if workers < 1 {
		workers = 1
	}
	d := ewma * time.Duration(queued+1) / time.Duration(workers)
	if d < time.Second {
		d = time.Second
	}
	if d > 10*time.Minute {
		d = 10 * time.Minute
	}
	return d
}

// snapshot assembles the /metrics document.
func (m *metrics) snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		BusyWorkers:    m.busy,
		JobsSubmitted:  m.submitted,
		JobsCompleted:  m.completed,
		JobsFailed:     m.failed,
		JobsCanceled:   m.canceled,
		JobsCached:     m.cached,
		StoreHits:      m.storeHits,
		InstrSimulated: m.instr,

		JobsForwarded:       m.forwarded,
		JobsForwardReceived: m.forwardReceived,
		ForwardFailures:     m.forwardFailures,
		PeerStoreHits:       m.peerHits,
		PeerStoreMisses:     m.peerMisses,

		BenchWallMS: make(map[string]*Histogram, len(m.benchWall)),
	}
	for name, h := range m.benchWall {
		cp := *h
		cp.Counts = append([]uint64(nil), h.Counts...)
		out.BenchWallMS[name] = &cp
	}
	if len(m.optimizeBest) > 0 {
		out.OptimizeBest = make(map[string]*OptimizeStatus, len(m.optimizeBest))
		for name, st := range m.optimizeBest {
			cp := *st
			cp.Config = append([]int(nil), st.Config...)
			out.OptimizeBest[name] = &cp
		}
	}
	return out
}
