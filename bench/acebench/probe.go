package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/machine"
	"acedo/internal/optimize"
	"acedo/internal/rtrace"
	"acedo/internal/server"
	"acedo/internal/server/store"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// probeLoopDiv shortens the probe programs: each suite benchmark runs
// 1/probeLoopDiv of its outer loops, keeping the probe battery to a few
// seconds while every program still runs all of its phases.
const probeLoopDiv = 4

// probeSpecs are the programs the layer probes run.
func probeSpecs(tiny bool) []workload.Spec {
	if tiny {
		return []workload.Spec{tinySpec()}
	}
	var out []workload.Spec
	for _, s := range workload.Suite() {
		out = append(out, s.WithMainLoops(s.MainLoops/probeLoopDiv))
	}
	return out
}

// probeChild measures each layer in isolation through its public
// functions, one call at a time, in its own process after the
// workload's timed phase, so the numbers never mix with the end-to-end
// ones. Every traced run carries the same battery, whatever its
// workload.
func probeChild(env *childEnv) (*childResult, error) {
	env.ready()
	L := make(map[string]float64)
	specs := probeSpecs(env.cfg.Tiny)
	opt := experiment.DefaultOptions()
	tr := env.tr

	// workload: generating the seven full-size programs.
	var builds []float64
	for i := 0; i < 5; i++ {
		_, end := tr.begin(0, 0, "workload", "workload.Build")
		start := time.Now()
		for _, s := range workload.Suite() {
			if _, err := s.Build(); err != nil {
				return nil, err
			}
		}
		builds = append(builds, millis(time.Since(start)))
		end()
	}
	L["workload.build_ms"] = median(builds)

	// vm and rtrace: bare interpretation, then the same runs recording.
	var bare, rec time.Duration
	var instr uint64
	var trace float64
	traces := make([]*rtrace.Trace, len(specs))
	for i, s := range specs {
		prog, err := s.Build()
		if err != nil {
			return nil, err
		}
		for _, record := range []bool{false, true} {
			mach, err := machine.New(opt.Machine)
			if err != nil {
				return nil, err
			}
			eng, err := vm.NewEngine(prog, mach, vm.NewAOS(opt.VM, mach, prog))
			if err != nil {
				return nil, err
			}
			layer, name := "vm", "vm.Engine.Run"
			var sr *rtrace.SummaryRecorder
			if record {
				layer, name = "rtrace", "rtrace.record"
				sr = rtrace.NewSummaryRecorder(prog, 0)
				if err := eng.SetRecorder(sr); err != nil {
					return nil, err
				}
			}
			_, end := tr.begin(0, 0, layer, name)
			start := time.Now()
			if err := eng.Run(0); err != nil {
				return nil, fmt.Errorf("probe %s: %w", s.Name, err)
			}
			if record {
				t, err := sr.Finish(eng.Halted())
				if err != nil {
					return nil, fmt.Errorf("probe %s: finish trace: %w", s.Name, err)
				}
				t.Prime(prog)
				traces[i] = t
				rec += time.Since(start)
				trace += float64(t.MemBytes()) / (1 << 20)
			} else {
				bare += time.Since(start)
				instr += mach.Instructions()
			}
			end()
		}
	}
	L["vm.engine_minstr_s"] = float64(instr) / bare.Seconds() / 1e6
	L["vm.instr"] = float64(instr)
	L["rtrace.record_ms"] = millis(rec)
	L["rtrace.record_overhead_pct"] = 100 * (rec.Seconds()/bare.Seconds() - 1)
	L["rtrace.trace_mb"] = trace

	// machine, core, bbv: replaying the recorded traces under the
	// baseline (machine model alone), hotspot and BBV schemes; the
	// managers' cost is their replay time over the baseline's.
	replay := map[experiment.Scheme]time.Duration{}
	replayInstr := map[experiment.Scheme]uint64{}
	fallbacks := 0
	for i, s := range specs {
		for _, sc := range []experiment.Scheme{experiment.SchemeBaseline, experiment.SchemeHotspot, experiment.SchemeBBV} {
			_, end := tr.begin(0, 0, "rtrace", "experiment.ReplayScheme/"+sc.String())
			start := time.Now()
			r, err := experiment.ReplayScheme(s, sc, opt, traces[i])
			replay[sc] += time.Since(start)
			end()
			if err != nil {
				return nil, err
			}
			replayInstr[sc] += r.Instr
			if r.Disposition == experiment.RunFallback {
				fallbacks++
			}
		}
	}
	rate := func(sc experiment.Scheme) float64 {
		return float64(replayInstr[sc]) / replay[sc].Seconds() / 1e6
	}
	L["machine.replay_minstr_s"] = rate(experiment.SchemeBaseline)
	L["rtrace.replay_minstr_s"] = rate(experiment.SchemeHotspot)
	L["rtrace.fallbacks"] = float64(fallbacks)
	L["core.manager_ms"] = millis(replay[experiment.SchemeHotspot] - replay[experiment.SchemeBaseline])
	L["bbv.manager_ms"] = millis(replay[experiment.SchemeBBV] - replay[experiment.SchemeBaseline])

	// experiment: Compare per benchmark (record + two replays through
	// the trace cache), then rendering the snapshot.
	var compare time.Duration
	sr := &experiment.SuiteResults{Options: opt}
	for _, s := range specs {
		_, end := tr.begin(0, 0, "experiment", "experiment.Compare")
		start := time.Now()
		c, err := experiment.Compare(s, opt)
		compare += time.Since(start)
		end()
		if err != nil {
			return nil, err
		}
		sr.Comparisons = append(sr.Comparisons, c)
	}
	L["experiment.compare_ms"] = millis(compare)
	var renders []float64
	var payload []byte
	for i := 0; i < 20; i++ {
		_, end := tr.begin(0, 0, "experiment", "experiment.render")
		start := time.Now()
		out, err := render(sr)
		renders = append(renders, millis(time.Since(start)))
		end()
		if err != nil {
			return nil, err
		}
		payload = out
	}
	L["experiment.render_ms"] = median(renders)

	if err := probeStore(env, L, payload); err != nil {
		return nil, err
	}
	if err := probeOptimize(env, L, specs[0]); err != nil {
		return nil, err
	}
	if err := probeServer(env, L); err != nil {
		return nil, err
	}
	return &childResult{Layer: L}, nil
}

// probeStore times the durable store's Put (write, fsync, rename,
// directory fsync) of a result-sized entry and the journal's fsynced
// Accept, on a scratch directory.
func probeStore(env *childEnv, L map[string]float64, payload []byte) error {
	dir := filepath.Join(env.cfg.Dir, fmt.Sprintf("probe-store-%d", env.cfg.Index))
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results"), "acebench", nil)
	if err != nil {
		return err
	}
	j, _, err := store.OpenJournal(filepath.Join(dir, "journal"), nil)
	if err != nil {
		return err
	}
	defer j.Close()
	n := 40
	if env.cfg.Tiny {
		n = 4
	}
	var puts, accepts []float64
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		hash := hex.EncodeToString(sum[:])
		_, end := env.tr.begin(0, 0, "store", "store.Put")
		start := time.Now()
		err := st.Put(hash, store.Entry{Result: payload, Meta: []byte("[]")})
		puts = append(puts, millis(time.Since(start)))
		end()
		if err != nil {
			return err
		}
		_, end = env.tr.begin(0, 0, "store", "store.Journal.Accept")
		start = time.Now()
		err = j.Accept(hash, []byte(`{"benchmarks":["jess"]}`))
		accepts = append(accepts, millis(time.Since(start)))
		end()
		if err != nil {
			return err
		}
	}
	L["store.put_ms_p50"] = percentile(puts, 50)
	L["store.put_ms_p90"] = percentile(puts, 90)
	L["store.journal_accept_ms_p50"] = percentile(accepts, 50)
	return nil
}

// probeOptimize times a small seeded search whose baseline trace is
// already recorded: the cost of one candidate evaluation, and the
// instructions it replays.
func probeOptimize(env *childEnv, L map[string]float64, w workload.Spec) error {
	opt := experiment.DefaultOptions()
	if _, _, err := experiment.RecordedBaseline(w, opt); err != nil {
		return err
	}
	spec, err := optimize.Spec{Budget: 8, Seed: 1}.Normalize()
	if err != nil {
		return err
	}
	_, end := env.tr.begin(0, 0, "optimize", "optimize.RunBench")
	br, st, err := optimize.RunBench(w, opt, optimize.DefaultSpace(), spec, nil)
	end()
	if err != nil {
		return err
	}
	L["optimize.eval_ms"] = millis(st.SearchWall) / float64(br.Evaluated)
	L["optimize.instr_per_eval"] = float64(st.SearchInstr) / float64(br.Evaluated)
	return nil
}

// probeServer drives a fresh ring one request at a time: cold jobs
// (split into the POST round trip, the job's execution wall time and
// the rest — queue wait, persist and journal), cached resubmissions
// (the result fetch) and forwarded ones (the peer hop over a cached
// resubmission).
func probeServer(env *childEnv, L map[string]float64) error {
	dir := filepath.Join(env.cfg.Dir, fmt.Sprintf("probe-ring-%d", env.cfg.Index))
	defer os.RemoveAll(dir)
	r, err := bootRing(dir, defaultMaxJobs)
	if err != nil {
		return err
	}
	defer r.close()
	sets := serviceSettings(true)
	n := 8
	if env.cfg.Tiny {
		n = 2
	}
	// Record the traces first so cold jobs replay, as in the service
	// workload.
	if _, _, err := r.prime(sets); err != nil {
		return err
	}
	var submit, exec, wait, cached, forwarded, result []float64
	var jobs []*job
	for i := 0; i < n; i++ {
		j, err := r.newJob(sets[i%len(sets)], uint64(i+1), false)
		if err != nil {
			return err
		}
		trace, end := env.tr.begin(0, 0, "acebench", "probe.cold")
		c, err := r.run(j, j.owner, env.tr, trace)
		end()
		if err != nil {
			return err
		}
		if c.failure != "" {
			return fmt.Errorf("probe cold job: %s", c.failure)
		}
		var st server.JobStatus
		if err := r.getJSON(j.owner, "/v1/jobs/"+c.status.ID, &st); err != nil {
			return err
		}
		j.result = c.result
		jobs = append(jobs, j)
		submit = append(submit, millis(c.submit))
		exec = append(exec, st.WallMS)
		wait = append(wait, millis(c.total-c.submit)-st.WallMS)
	}
	for i := 0; i < 3*n; i++ {
		j := jobs[i%len(jobs)]
		for _, fwd := range []bool{false, true} {
			node := j.owner
			if fwd {
				for _, nd := range r.nodes {
					if nd.id != j.owner {
						node = nd.id
						break
					}
				}
			}
			trace, end := env.tr.begin(0, 0, "acebench", "probe.resubmit")
			c, err := r.run(j, node, env.tr, trace)
			end()
			if err != nil {
				return err
			}
			if c.failure != "" || !c.status.Cached {
				return fmt.Errorf("probe resubmission via %s was not a cache hit: %s", node, c.failure)
			}
			if fwd {
				forwarded = append(forwarded, millis(c.total))
			} else {
				cached = append(cached, millis(c.total))
				result = append(result, millis(c.total-c.submit))
			}
		}
	}
	failures := 0.0
	for _, nd := range r.nodes {
		var m server.Metrics
		if err := r.getJSON(nd.id, "/metrics", &m); err != nil {
			return err
		}
		failures += float64(m.ForwardFailures)
	}
	L["server.submit_ms_p50"] = median(submit)
	L["server.exec_ms_p50"] = median(exec)
	L["server.wait_ms_p50"] = median(wait)
	L["server.result_ms_p50"] = median(result)
	L["cluster.hop_ms_p50"] = median(forwarded) - median(cached)
	L["cluster.forward_failures"] = failures
	return nil
}
