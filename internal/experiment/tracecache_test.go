package experiment

import (
	"testing"

	"acedo/internal/rtrace"
)

// recordFor records one baseline run of the named benchmark and
// returns its trace.
func recordFor(t *testing.T, name string) *rtrace.Trace {
	t.Helper()
	spec := shortSpec(t, name)
	opt := DefaultOptions()
	_, tr, err := runDirect(spec, SchemeBaseline, opt, true)
	if err != nil {
		t.Fatalf("record %s: %v", name, err)
	}
	if tr == nil {
		t.Fatalf("record %s: nil trace", name)
	}
	return tr
}

// TestTraceCacheBudgetValue pins the documented process-wide budget:
// the admission arithmetic below and the acelabd metrics docs both
// quote 1 GiB.
func TestTraceCacheBudgetValue(t *testing.T) {
	if traceCacheBudget != 1<<30 {
		t.Fatalf("traceCacheBudget = %d, want %d (1 GiB; update the docs with it)", traceCacheBudget, 1<<30)
	}
}

// TestTraceCacheChargesMemBytes: the cache budget must charge each
// trace's full resident memory (MemBytes: the summary's op stream and
// side tables).
func TestTraceCacheChargesMemBytes(t *testing.T) {
	resetTraceCache()
	defer resetTraceCache()

	tr := recordFor(t, "jess")
	if tr.MemBytes() == 0 {
		t.Fatal("trace MemBytes = 0, want its summary footprint")
	}
	storeTrace(traceKey{spec: 1}, tr)
	st := CurrentTraceCacheStats()
	if st.Entries != 1 || st.Bytes != tr.MemBytes() {
		t.Errorf("stats after first store = %+v, want 1 entry of %d bytes", st, tr.MemBytes())
	}

	tr2 := recordFor(t, "db")
	storeTrace(traceKey{spec: 2}, tr2)
	st = CurrentTraceCacheStats()
	if st.Entries != 2 || st.Bytes != tr.MemBytes()+tr2.MemBytes() {
		t.Errorf("stats after second store = %+v, want 2 entries of %d bytes",
			st, tr.MemBytes()+tr2.MemBytes())
	}
}

// TestTraceCacheAdmissionBudget: once the budget cannot absorb a
// trace's MemBytes the recording is not retained (first-come
// retention, no eviction), and admission resumes for smaller traces
// that still fit.
func TestTraceCacheAdmissionBudget(t *testing.T) {
	resetTraceCache()
	defer func() {
		traceCacheBudget = 1 << 30
		resetTraceCache()
	}()

	tr := recordFor(t, "jess")
	traceCacheBudget = tr.MemBytes() + tr.MemBytes()/2

	storeTrace(traceKey{spec: 1}, tr)
	if st := CurrentTraceCacheStats(); st.Entries != 1 {
		t.Fatalf("first store not admitted: %+v", st)
	}
	// A second full-size trace exceeds the budget: rejected, stats
	// unchanged.
	storeTrace(traceKey{spec: 2}, tr)
	st := CurrentTraceCacheStats()
	if st.Entries != 1 || st.Bytes != tr.MemBytes() {
		t.Errorf("over-budget store changed stats: %+v", st)
	}
	// Storing under an existing key is idempotent.
	storeTrace(traceKey{spec: 1}, tr)
	if st := CurrentTraceCacheStats(); st.Entries != 1 || st.Bytes != tr.MemBytes() {
		t.Errorf("duplicate store changed stats: %+v", st)
	}
}

// TestSnapshotMetaTraceCache: the trace-cache gauges ride only on
// SnapshotWithMeta — the plain schema-stable snapshot must omit them,
// so default `acetables -json` output stays byte-identical between
// replayed and direct runs (the replay-check gate diffs exactly that
// output).
func TestSnapshotMetaTraceCache(t *testing.T) {
	resetTraceCache()
	defer resetTraceCache()
	tr := recordFor(t, "jess")
	storeTrace(traceKey{spec: 1}, tr)

	res := &SuiteResults{Options: DefaultOptions()}
	if s := res.Snapshot(); s.TraceCache != nil {
		t.Errorf("plain snapshot carries run metadata: cache=%+v", s.TraceCache)
	}
	s := res.SnapshotWithMeta()
	if s.TraceCache == nil {
		t.Fatal("meta snapshot has no trace_cache block")
	}
	if s.TraceCache.Entries != 1 || s.TraceCache.Bytes != tr.MemBytes() {
		t.Errorf("trace_cache block = %+v, want 1 entry of %d bytes", s.TraceCache, tr.MemBytes())
	}
}

// TestRunSchemesReplayMatchesDirect: from a cold trace cache,
// RunSchemes records with the first scheme and replays the rest, and
// every result must be bit-identical to direct execution.
func TestRunSchemesReplayMatchesDirect(t *testing.T) {
	spec := shortSpec(t, "db")
	schemes := []Scheme{SchemeBaseline, SchemeBBV, SchemeHotspot}

	resetTraceCache()
	defer resetTraceCache()
	opt := DefaultOptions()
	replayed, err := RunSchemes(spec, opt, schemes)
	if err != nil {
		t.Fatalf("RunSchemes: %v", err)
	}
	opt.NoReplay = true
	direct, err := RunSchemes(spec, opt, schemes)
	if err != nil {
		t.Fatalf("RunSchemes (direct): %v", err)
	}
	for i := range schemes {
		if !sameSim(replayed[i], direct[i]) {
			t.Errorf("%s: replayed run differs from direct:\nreplay = %+v\ndirect = %+v",
				schemes[i], replayed[i], direct[i])
		}
		want := RunReplayed
		if i == 0 {
			want = RunRecorded
		}
		if replayed[i].Disposition != want {
			t.Errorf("%s: disposition = %q, want %q", schemes[i], replayed[i].Disposition, want)
		}
	}
}
