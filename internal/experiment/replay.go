// Record-once / replay-many: the experiment layer records each
// benchmark's architectural event stream during its first (baseline)
// run and replays that trace for every other scheme instead of
// re-interpreting the program. The stream — block entries with their
// fixed-hardware fetch outcomes, data accesses with D-TLB outcomes,
// branch verdicts, retire-batch lengths, and method enter/exit — is
// scheme-invariant: adaptation schemes resize the L1D/L2/IQ, which
// changes timing and energy but never the instruction stream or the
// fixed units' hit/miss behaviour. Replay therefore reproduces every
// run bit-for-bit (pinned by the differential tests) while skipping
// the register file, the decoder, and the fixed hardware's state
// machines entirely.
package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"time"

	"acedo/internal/rtrace"
	"acedo/internal/telemetry"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// traceKey identifies a recorded stream. The stream is a pure function
// of the program (spec), the instruction budget (truncation point),
// the call-depth limit, and the machine's fixed-unit configuration —
// it does not depend on the scheme, the fault plan, or any sampling
// parameter, so one recording serves every scheme and every tuner
// configuration of the same benchmark. Spec and machine config hold
// slices, so both enter the key as an FNV-1a hash of their full value
// rendering rather than by direct comparison.
type traceKey struct {
	spec     uint64
	mach     uint64
	maxInstr uint64
	depth    int
}

func traceKeyFor(spec workload.Spec, opt Options) traceKey {
	hs := fnv.New64a()
	fmt.Fprintf(hs, "%#v", spec)
	hm := fnv.New64a()
	fmt.Fprintf(hm, "%#v", opt.Machine)
	return traceKey{
		spec:     hs.Sum64(),
		mach:     hm.Sum64(),
		maxInstr: opt.MaxInstr,
		depth:    opt.VM.MaxCallDepth,
	}
}

// traceCacheBudget bounds the process-wide trace cache's resident
// memory (rtrace.Trace.MemBytes: each trace's op stream and side
// tables). Once the budget is reached, further recordings simply
// aren't retained (first-come retention — no eviction, keeping cached
// replays deterministic). A var only so the admission test can shrink
// it; never mutated outside tests.
var traceCacheBudget = 1 << 30

var traceCache = struct {
	sync.Mutex
	m    map[traceKey]*rtrace.Trace
	size int
}{m: make(map[traceKey]*rtrace.Trace)}

func cachedTrace(k traceKey) *rtrace.Trace {
	traceCache.Lock()
	defer traceCache.Unlock()
	return traceCache.m[k]
}

func storeTrace(k traceKey, t *rtrace.Trace) {
	mem := t.MemBytes()
	traceCache.Lock()
	defer traceCache.Unlock()
	if _, ok := traceCache.m[k]; ok {
		return
	}
	if traceCache.size+mem > traceCacheBudget {
		return
	}
	traceCache.m[k] = t
	traceCache.size += mem
}

// resetTraceCache empties the process-wide trace cache (tests only).
func resetTraceCache() {
	traceCache.Lock()
	defer traceCache.Unlock()
	traceCache.m = make(map[traceKey]*rtrace.Trace)
	traceCache.size = 0
}

// TraceCacheStats is a point-in-time view of the process-wide trace
// cache, exported on acelabd's /metrics and in acetables -runmeta.
type TraceCacheStats struct {
	// Entries is the number of cached traces; Bytes their resident
	// memory (rtrace.Trace.MemBytes).
	Entries int
	Bytes   int
}

// CurrentTraceCacheStats snapshots the process-wide trace cache.
func CurrentTraceCacheStats() TraceCacheStats {
	traceCache.Lock()
	defer traceCache.Unlock()
	return TraceCacheStats{Entries: len(traceCache.m), Bytes: traceCache.size}
}

// RunSchemes runs one benchmark under several schemes with the
// record-once / replay-many fast path (see Compare) and returns the
// results in scheme order. With replay enabled (the default), the
// first scheme's run doubles as the recording run — or is itself
// replayed when the process-wide cache already holds the benchmark's
// trace — and the remaining schemes replay in parallel, bounded by
// Options.Parallelism. A scheme whose replay diverges (possible only
// for truncated traces under overhead-charging schemes) falls back to
// direct execution. With Options.NoReplay every scheme runs directly.
// Results match direct execution bit-for-bit either way; error
// semantics match the sequential original (the first failing scheme
// in scheme order reports).
func RunSchemes(spec workload.Spec, opt Options, schemes []Scheme) ([]*Result, error) {
	if len(schemes) == 0 {
		return nil, nil
	}
	results := make([]*Result, len(schemes))
	if opt.NoReplay {
		for i, s := range schemes {
			r, err := Run(spec, s, opt)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	key := traceKeyFor(spec, opt)
	tr := cachedTrace(key)
	next := 0
	if tr == nil {
		r, t, err := recordRun(spec, schemes[0], opt)
		if err != nil {
			return nil, err
		}
		results[0] = r
		next = 1
		if t != nil {
			storeTrace(key, t)
			tr = t
		}
	}
	if tr == nil {
		// The recording was discarded (e.g. a block too wide for the
		// trace encoding): remaining schemes execute directly.
		for i := next; i < len(schemes); i++ {
			r, err := Run(spec, schemes[i], opt)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, max(1, par))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i := next; i < len(schemes); i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = replayOrFallback(spec, schemes[i], opt, tr)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RecordedBaseline returns one benchmark's baseline run together with
// its recorded architectural trace, recording on first use and serving
// the process-wide trace cache thereafter. The trace captures only the
// fixed hardware's outcomes (L1I, I/D-TLB, branch predictor) plus the
// scheme-invariant instruction stream, so it can later drive ReplayScheme
// under *different* resizable-unit configurations and tuner parameters —
// the property internal/optimize's search exploits to make every
// candidate evaluation a cheap replay. A nil trace (the recorder could
// not take the stream) is returned alongside the still-valid result.
func RecordedBaseline(spec workload.Spec, opt Options) (*Result, *rtrace.Trace, error) {
	key := traceKeyFor(spec, opt)
	if tr := cachedTrace(key); tr != nil {
		res, err := replayOrFallback(spec, SchemeBaseline, opt, tr)
		return res, tr, err
	}
	res, tr, err := recordRun(spec, SchemeBaseline, opt)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		storeTrace(key, tr)
	}
	return res, tr, err
}

// ReplayScheme runs one benchmark × scheme from a previously recorded
// trace, falling back to direct execution when the trace provably
// cannot drive the run (divergence of a truncated trace under an
// overhead-charging scheme) or when tr is nil. The options need not
// match the recording options: only the fixed hardware (L1I, TLBs,
// branch predictor, timing model) and the program itself must be
// identical, so callers may vary the resizable-unit ladders,
// associativities, and every tuner/sampling parameter per replay.
func ReplayScheme(spec workload.Spec, scheme Scheme, opt Options, tr *rtrace.Trace) (*Result, error) {
	if tr == nil {
		return Run(spec, scheme, opt)
	}
	return replayOrFallback(spec, scheme, opt, tr)
}

// recordRun executes one run directly while capturing its
// architectural trace. A trace the recorder could not take (or a
// truncated run whose recording failed to finalise) yields a nil trace
// alongside the still-valid result.
func recordRun(spec workload.Spec, scheme Scheme, opt Options) (*Result, *rtrace.Trace, error) {
	start := time.Now()
	var tr *rtrace.Trace
	res, err := guarded(spec, scheme, func() (*Result, error) {
		st, err := newRunState(spec, scheme, opt)
		if err != nil {
			return nil, err
		}
		eng, err := vm.NewEngine(st.prog, st.mach, st.aos)
		if err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
		rec := rtrace.NewSummaryRecorder(st.prog, opt.MaxInstr)
		if err := eng.SetRecorder(rec); err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
		if st.listener != nil {
			eng.SetBlockListener(st.listener)
		}
		if err := runEngine(eng, spec.Name, scheme, opt); err != nil {
			return nil, err
		}
		if t, ferr := rec.Finish(eng.Halted()); ferr == nil {
			tr = t
		}
		return st.finish(), nil
	})
	if res != nil {
		res.Wall = time.Since(start)
		res.Disposition = RunDirect
		if tr != nil {
			res.Disposition = RunRecorded
			emitDisposition(opt, spec, scheme, res, RunRecorded, "", tr)
		}
	}
	return res, tr, err
}

// replayOrFallback replays one scheme from the benchmark's trace,
// re-executing directly when the trace provably cannot drive this run
// (rtrace.ErrDiverged / ErrMalformed). Genuine run failures — injected
// panics, setup errors — propagate exactly as direct execution's.
func replayOrFallback(spec workload.Spec, scheme Scheme, opt Options, tr *rtrace.Trace) (*Result, error) {
	start := time.Now()
	res, err := guarded(spec, scheme, func() (*Result, error) {
		st, err := newRunState(spec, scheme, opt)
		if err != nil {
			return nil, err
		}
		env := rtrace.Env{
			Prog: st.prog, Mach: st.mach, AOS: st.aos, BlockListener: st.listener,
		}
		if err := tr.Replay(env); err != nil {
			return nil, err
		}
		return st.finish(), nil
	})
	if err == nil {
		res.Disposition = RunReplayed
		res.Wall = time.Since(start)
		emitDisposition(opt, spec, scheme, res, RunReplayed, "", tr)
		return res, nil
	}
	if errors.Is(err, rtrace.ErrDiverged) || errors.Is(err, rtrace.ErrMalformed) {
		reason := err.Error()
		res, err = Run(spec, scheme, opt)
		if err != nil {
			return nil, err
		}
		res.Disposition = RunFallback
		res.Wall = time.Since(start)
		emitDisposition(opt, spec, scheme, res, RunFallback, reason, tr)
		return res, nil
	}
	return nil, err
}

// emitDisposition reports a run's record/replay disposition on the
// telemetry stream (no-op without a sink).
func emitDisposition(opt Options, spec workload.Spec, scheme Scheme, res *Result, disposition, reason string, tr *rtrace.Trace) {
	if opt.Sink == nil {
		return
	}
	e := telemetry.Replay(disposition, reason, tr.Events(), uint64(tr.MemBytes()))
	e.Instr = res.Instr
	telemetry.WithRunLabels(opt.Sink, spec.Name, scheme.String()).Emit(e)
}

// runsSummary renders per-run wall time and disposition for a suite
// progress line, e.g. " [baseline 0.41s recorded; bbv 0.05s replayed]".
func runsSummary(runs ...*Result) string {
	var b strings.Builder
	for _, r := range runs {
		if r == nil {
			continue
		}
		if b.Len() == 0 {
			b.WriteString(" [")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %.2fs %s", r.Scheme, r.Wall.Seconds(), r.Disposition)
	}
	if b.Len() > 0 {
		b.WriteString("]")
	}
	return b.String()
}
