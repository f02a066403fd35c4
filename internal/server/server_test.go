package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/workload"
)

// testServer boots a Server behind httptest and tears both down with
// the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		done := make(chan struct{})
		time.AfterFunc(30*time.Second, func() { close(done) })
		if err := s.Shutdown(done); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// postJob submits a raw spec and returns the response status code,
// headers, and body.
func postJob(t *testing.T, base, spec string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

// getJSON fetches path and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, base, path string, v any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode
}

// waitState polls a job until it reaches a terminal state (or want,
// when non-empty) and returns its final status.
func waitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, base, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		if st.State == want || (want == "" && terminal(st.State)) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q)", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getBody fetches path and returns status code and raw body.
func getBody(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestJobLifecycle submits one comparison job and checks the full
// path: 202 on submit, queued/running → done, and a result document
// byte-identical to running the same comparison directly through the
// experiment layer.
func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	code, _, body := postJob(t, ts.URL, `{"benchmarks":["compress"],"scale":40}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202\n%s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode submit status: %v", err)
	}
	if st.State != StateQueued {
		t.Errorf("submit state = %q, want %q", st.State, StateQueued)
	}
	if st.SpecHash == "" || st.ID == "" {
		t.Errorf("submit status missing identity: %+v", st)
	}

	final := waitState(t, ts.URL, st.ID, StateDone)
	if final.Error != "" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if len(final.Runs) != 3 {
		t.Errorf("runs = %d, want 3 (baseline/bbv/hotspot)", len(final.Runs))
	}
	if final.ResultURL == "" {
		t.Fatalf("done job has no result_url")
	}

	code, got := getBody(t, ts.URL, final.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}

	// The same comparison straight through the experiment layer must
	// render byte-identically.
	opt := experiment.OptionsAtScale(40)
	spec, _ := workload.ByName("compress")
	c, err := experiment.Compare(opt.AdjustWorkload(spec), opt)
	if err != nil {
		t.Fatalf("direct compare: %v", err)
	}
	direct := experiment.SuiteResults{Options: opt, Comparisons: []*experiment.Comparison{c}}
	var want bytes.Buffer
	if err := direct.Snapshot().WriteJSON(&want); err != nil {
		t.Fatalf("direct snapshot: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("service result differs from direct experiment run:\nservice: %s\ndirect:  %s", got, want.Bytes())
	}
}

// TestTransientRunPanicRetried: a job whose run panics through a
// transient fault rule is retried once under the plan minus its
// transient rules, so it completes with the clean job's result bytes.
// Both job kinds, the comparison and the explicit scheme list, share
// the one retry policy.
func TestTransientRunPanicRetried(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	const faults = `"faults":{"seed":1,"rules":[{"point":"run","kind":"panic","scheme":"bbv","transient":true}]}`
	for _, base := range []string{
		`"benchmarks":["compress"],"scale":40`,
		`"benchmarks":["compress"],"schemes":["baseline","bbv"],"scale":40`,
	} {
		var results [2][]byte
		for i, spec := range []string{"{" + base + "}", "{" + base + "," + faults + "}"} {
			code, _, body := postJob(t, ts.URL, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit %s: status %d\n%s", spec, code, body)
			}
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if final := waitState(t, ts.URL, st.ID, ""); final.State != StateDone {
				t.Fatalf("%s: state %q, error %q; want done", spec, final.State, final.Error)
			}
			_, results[i] = getBody(t, ts.URL, "/v1/jobs/"+st.ID+"/result")
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Errorf("{%s}: retried result differs from the clean job's:\nclean: %s\nretried: %s", base, results[0], results[1])
		}
	}
}

// TestCacheHitDeterminism submits the same job twice: the second
// submission must be answered from the result cache — born done with
// byte-identical result bytes — without executing anything, pinned by
// the instruction counter in /metrics staying put.
func TestCacheHitDeterminism(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	spec := `{"benchmarks":["compress"],"schemes":["baseline","wss"],"scale":40,"run_meta":true}`

	code, _, body := postJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d\n%s", code, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, ts.URL, first.ID, StateDone)
	_, firstResult := getBody(t, ts.URL, "/v1/jobs/"+first.ID+"/result")

	var before Metrics
	getJSON(t, ts.URL, "/metrics", &before)
	if before.InstrSimulated == 0 {
		t.Fatalf("metrics report no simulated instructions after an executed job")
	}

	// An equivalent spec with different field order and explicit
	// defaults must normalise to the same content address.
	equiv := `{"scale":40,"run_meta":true,"schemes":["baseline","wss"],"benchmarks":["compress"]}`
	code, _, body = postJob(t, ts.URL, equiv)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d, want 200 (cache hit)\n%s", code, body)
	}
	var second JobStatus
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Errorf("second submission not a cache hit: cached=%v state=%q", second.Cached, second.State)
	}
	if second.SpecHash != done.SpecHash {
		t.Errorf("equivalent specs hashed differently: %s vs %s", second.SpecHash, done.SpecHash)
	}
	if len(second.Runs) != len(done.Runs) {
		t.Errorf("cache hit runs = %d, want %d", len(second.Runs), len(done.Runs))
	}

	_, secondResult := getBody(t, ts.URL, "/v1/jobs/"+second.ID+"/result")
	if !bytes.Equal(firstResult, secondResult) {
		t.Errorf("cached result not byte-identical:\nfirst:  %s\nsecond: %s", firstResult, secondResult)
	}

	var after Metrics
	getJSON(t, ts.URL, "/metrics", &after)
	if after.InstrSimulated != before.InstrSimulated {
		t.Errorf("cache hit executed instructions: %d -> %d", before.InstrSimulated, after.InstrSimulated)
	}
	if after.CacheHits != 1 || after.JobsCached != 1 {
		t.Errorf("cache counters: hits=%d cached=%d, want 1/1", after.CacheHits, after.JobsCached)
	}
}

// TestMetricsTraceCache: after an executed schemes job, /metrics must
// expose the process-wide trace cache's gauges — the recording the job
// stored shows up as a new entry with a non-zero memory charge.
func TestMetricsTraceCache(t *testing.T) {
	// The trace cache is process-global, so assert deltas, and use a
	// max_instr value no other test submits so the job really records
	// rather than replaying another test's cached trace. The job's
	// recording is a summary trace, the one representation there is.
	t.Run("summary", func(t *testing.T) {
		before := experiment.CurrentTraceCacheStats()
		_, ts := testServer(t, Config{Workers: 1})
		code, _, body := postJob(t, ts.URL,
			`{"benchmarks":["compress"],"schemes":["baseline","wss"],"scale":40,"max_instr":600001}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d\n%s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if final := waitState(t, ts.URL, st.ID, StateDone); final.Error != "" {
			t.Fatalf("job failed: %s", final.Error)
		}
		var m Metrics
		getJSON(t, ts.URL, "/metrics", &m)
		if m.TraceCacheEntries <= before.Entries || m.TraceCacheBytes <= before.Bytes {
			t.Errorf("trace cache gauges did not grow: entries %d->%d bytes %d->%d",
				before.Entries, m.TraceCacheEntries, before.Bytes, m.TraceCacheBytes)
		}
	})
}

// stubRun replaces the worker run function with one that blocks until
// release closes (or the job is canceled).
func stubRun(s *Server, release <-chan struct{}) {
	s.runFn = func(spec JobSpec, sink *eventLog, cancel <-chan struct{}) ([]byte, []RunMeta, error) {
		select {
		case <-release:
			return []byte("{}\n"), []RunMeta{{Benchmark: "stub", Scheme: "baseline"}}, nil
		case <-cancel:
			return nil, nil, &experiment.RunError{Benchmark: "stub", Err: experiment.ErrCanceled}
		}
	}
}

// uniqueSpec returns a spec no other test submits, so stub jobs never
// collide in the result cache.
func uniqueSpec(n int) string {
	return fmt.Sprintf(`{"benchmarks":["compress"],"max_instr":%d}`, 1000+n)
}

// TestQueueFullBackpressure fills the worker and the queue, then
// checks that the next submission is rejected with 429 and a
// Retry-After estimate.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	stubRun(s, release)

	// First job occupies the worker, second the queue slot.
	if code, _, body := postJob(t, ts.URL, uniqueSpec(1)); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d\n%s", code, body)
	}
	waitBusy(t, ts.URL)
	if code, _, body := postJob(t, ts.URL, uniqueSpec(2)); code != http.StatusAccepted {
		t.Fatalf("job 2: status %d\n%s", code, body)
	}

	code, hdr, body := postJob(t, ts.URL, uniqueSpec(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429\n%s", code, body)
	}
	retry := hdr.Get("Retry-After")
	if retry == "" {
		t.Errorf("429 without Retry-After header")
	}
	var sec int
	if _, err := fmt.Sscanf(retry, "%d", &sec); err != nil || sec < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", retry)
	}

	close(release)
	var ms Metrics
	getJSON(t, ts.URL, "/metrics", &ms)
	if ms.QueueCapacity != 1 || ms.Workers != 1 {
		t.Errorf("metrics config: queue_capacity=%d workers=%d", ms.QueueCapacity, ms.Workers)
	}
}

// waitBusy polls /metrics until a worker picks up a job.
func waitBusy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m Metrics
		getJSON(t, base, "/metrics", &m)
		if m.BusyWorkers > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no worker went busy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelRunning cancels a running job via DELETE and checks it
// lands in the canceled state with the cancellation surfaced.
func TestCancelRunning(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	stubRun(s, release)

	_, _, body := postJob(t, ts.URL, uniqueSpec(10))
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, ts.URL)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()

	final := waitState(t, ts.URL, st.ID, StateCanceled)
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled job error = %q, want mention of cancellation", final.Error)
	}

	// A canceled job has no result document.
	code, _ := getBody(t, ts.URL, "/v1/jobs/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Errorf("result of canceled job: status %d, want 409", code)
	}
	var m Metrics
	getJSON(t, ts.URL, "/metrics", &m)
	if m.JobsCanceled != 1 {
		t.Errorf("jobs_canceled = %d, want 1", m.JobsCanceled)
	}
}

// TestCancelQueued cancels a job that is still waiting for a worker:
// it must finalise immediately and never execute.
func TestCancelQueued(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	stubRun(s, release)

	_, _, body := postJob(t, ts.URL, uniqueSpec(20))
	var running JobStatus
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, ts.URL)
	_, _, body = postJob(t, ts.URL, uniqueSpec(21))
	var queued JobStatus
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Errorf("queued job after DELETE: state %q, want canceled immediately", st.State)
	}

	close(release)
	waitState(t, ts.URL, running.ID, StateDone)
	var m Metrics
	getJSON(t, ts.URL, "/metrics", &m)
	if m.JobsCompleted != 1 || m.JobsCanceled != 1 {
		t.Errorf("completed=%d canceled=%d, want 1/1 (canceled job must not execute)",
			m.JobsCompleted, m.JobsCanceled)
	}
}

// TestMetricsCountBeforeTerminalState: a job is counted in /metrics
// before its terminal state is published, so a client that has just
// observed done, failed or canceled (queued or running) finds it
// counted. Each transition is triggered while the test holds the
// metrics lock: the job must not turn terminal until the lock is
// released, and /metrics read the moment it does must count it.
func TestMetricsCountBeforeTerminalState(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	fail := errors.New("stub failure")
	var mu sync.Mutex
	finish := map[uint64]chan error{}
	s.runFn = func(spec JobSpec, sink *eventLog, cancel <-chan struct{}) ([]byte, []RunMeta, error) {
		mu.Lock()
		ch := finish[spec.MaxInstr]
		mu.Unlock()
		select {
		case err := <-ch:
			return []byte("{}\n"), []RunMeta{{Benchmark: "stub", Scheme: "baseline"}}, err
		case <-cancel:
			return nil, nil, &experiment.RunError{Benchmark: "stub", Err: experiment.ErrCanceled}
		}
	}
	submit := func(n int) (*job, chan error) {
		ch := make(chan error, 1)
		mu.Lock()
		finish[uint64(1000+n)] = ch
		mu.Unlock()
		_, _, body := postJob(t, ts.URL, uniqueSpec(n))
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		return j, ch
	}
	// settle triggers j's transition with the metrics lock held and
	// fails if j turns terminal before the lock is released (j.mu held
	// by the transition counts as unobservable); it then waits for the
	// terminal state and returns /metrics as read right after it.
	settle := func(j *job, want string, trigger func()) Metrics {
		t.Helper()
		s.metrics.mu.Lock()
		trigger()
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if j.mu.TryLock() {
				st := j.state
				j.mu.Unlock()
				if terminal(st) {
					s.metrics.mu.Unlock()
					t.Fatalf("job %s published %q before it was counted", j.id, st)
				}
			}
		}
		s.metrics.mu.Unlock()
		if st := waitState(t, ts.URL, j.id, ""); st.State != want {
			t.Fatalf("job %s ended %q, want %q", j.id, st.State, want)
		}
		var m Metrics
		getJSON(t, ts.URL, "/metrics", &m)
		return m
	}
	del := func(j *job) func() {
		return func() {
			go func() {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("DELETE: %v", err)
					return
				}
				resp.Body.Close()
			}()
		}
	}

	j, ch := submit(60)
	waitBusy(t, ts.URL)
	if m := settle(j, StateDone, func() { ch <- nil }); m.JobsCompleted != 1 {
		t.Errorf("saw done, jobs_completed=%d, want 1", m.JobsCompleted)
	}
	j, ch = submit(61)
	waitBusy(t, ts.URL)
	if m := settle(j, StateFailed, func() { ch <- fail }); m.JobsFailed != 1 {
		t.Errorf("saw failed, jobs_failed=%d, want 1", m.JobsFailed)
	}
	running, _ := submit(62)
	waitBusy(t, ts.URL)
	queued, _ := submit(63)
	if m := settle(queued, StateCanceled, del(queued)); m.JobsCanceled != 1 {
		t.Errorf("saw queued job canceled, jobs_canceled=%d, want 1", m.JobsCanceled)
	}
	if m := settle(running, StateCanceled, del(running)); m.JobsCanceled != 2 {
		t.Errorf("saw running job canceled, jobs_canceled=%d, want 2", m.JobsCanceled)
	}
}

// TestGracefulDrain starts a drain with a job in flight: readiness and
// submissions must flip to 503 immediately, and Shutdown must return
// once the in-flight job finishes.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	release := make(chan struct{})
	stubRun(s, release)

	_, _, body := postJob(t, ts.URL, uniqueSpec(30))
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, ts.URL)

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(nil) }()
	waitDraining(t, ts.URL)

	if code, _, body := postJob(t, ts.URL, uniqueSpec(31)); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503\n%s", code, body)
	}
	if code, _ := getBody(t, ts.URL, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", code)
	}
	select {
	case err := <-drained:
		t.Fatalf("shutdown returned before in-flight job finished: %v", err)
	default:
	}

	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("shutdown did not complete after job release")
	}
	final := waitState(t, ts.URL, st.ID, StateDone)
	if final.State != StateDone {
		t.Errorf("in-flight job after drain: %q, want done", final.State)
	}
}

// waitDraining polls /healthz until the server reports draining.
func waitDraining(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := getBody(t, base, "/healthz"); code == http.StatusServiceUnavailable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsStream runs a job with events enabled and checks the
// /events endpoint yields a well-formed JSONL stream that terminates
// once the job is done.
func TestEventsStream(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	spec := `{"benchmarks":["compress"],"schemes":["baseline"],"scale":40,"events":true}`
	_, _, body := postJob(t, ts.URL, spec)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, st.ID, StateDone)

	code, events := getBody(t, ts.URL, st.EventsURL)
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	lines := bytes.Split(bytes.TrimSuffix(events, []byte("\n")), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatalf("events stream empty for a job with events enabled")
	}
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("events line %d not JSON: %v\n%s", i, err, line)
		}
		if e["type"] == "" {
			t.Fatalf("events line %d missing type: %s", i, line)
		}
	}

	// A job without events yields an empty (but well-formed) stream.
	_, _, body = postJob(t, ts.URL, `{"benchmarks":["compress"],"schemes":["baseline"],"scale":40}`)
	var quiet JobStatus
	if err := json.Unmarshal(body, &quiet); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, quiet.ID, "")
	if code, events := getBody(t, ts.URL, quiet.EventsURL); code != http.StatusOK || len(events) != 0 {
		t.Errorf("eventless job stream: status %d, %d bytes, want 200 and empty", code, len(events))
	}
}

// TestBadSpecs checks validation rejections.
func TestBadSpecs(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, spec := range []string{
		`{"benchmarks":["nope"]}`,
		`{"schemes":["turbo"]}`,
		`{"benchmarks":["compress","compress"]}`,
		`{"schemes":["bbv","bbv"]}`,
		`{"deadline_ms":-5}`,
		`{"unknown_field":1}`,
		`not json`,
	} {
		if code, _, body := postJob(t, ts.URL, spec); code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400\n%s", spec, code, body)
		}
	}
	// Unknown job IDs are 404 everywhere.
	if code, _ := getBody(t, ts.URL, "/v1/jobs/j999"); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL, "/v1/jobs/j999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}
}

// TestSpecHashNormalization pins the content-address contract: the
// zero spec and a spec spelling out every default hash identically,
// while any semantic difference changes the hash.
func TestSpecHashNormalization(t *testing.T) {
	zero, err := JobSpec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, spec := range workload.Suite() {
		all = append(all, spec.Name)
	}
	explicit, err := JobSpec{
		Benchmarks: all,
		Schemes:    []string{"baseline", "bbv", "hotspot"},
		Scale:      10,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := SpecHash(zero)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := SpecHash(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("zero spec and explicit-defaults spec hash differently:\n%s\n%s", h1, h2)
	}

	other := explicit
	other.Scale = 40
	other, _ = other.Normalize()
	h3, err := SpecHash(other)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Errorf("different scale, same hash %s", h3)
	}
	if !zero.comparison() {
		t.Errorf("default spec not recognised as comparison job")
	}
	if s := (JobSpec{Schemes: []string{"baseline", "wss"}}); func() bool {
		n, _ := s.Normalize()
		return n.comparison()
	}() {
		t.Errorf("baseline/wss spec misclassified as comparison job")
	}
}
