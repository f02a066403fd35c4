package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/workload"
)

// goldenSuiteSHA256 is the SHA-256 of the `acetables -json` snapshot at
// the default scale — the paper's fixed 7×3 evaluation. Every cold pass
// must render exactly these bytes.
const goldenSuiteSHA256 = "35bc06c125a90cce5416b00170aa677dbe1ceb136910530833b444616512b144"

// suiteWarmOps is the number of timed warm operations per suite child,
// after one untimed warm-up; tinyWarmOps is the smoke-test size. At most
// four children give at most 96 samples, fewer than a p90 tail needs
// (see tailPercentile), so the suite's tail is its median: with 105
// samples the p90 spread 18% over ten runs on a 2-core host, the median
// 8%.
const (
	suiteWarmOps = 24
	tinyWarmOps  = 4
)

// tinySpec is the smoke-test program: one suite benchmark cut to a
// single outer loop.
func tinySpec() workload.Spec {
	spec, _ := workload.ByName("jess")
	return spec.WithMainLoops(1)
}

// suiteChild runs the `acetables -json` path once in a fresh process —
// the cold operation, timed from Collect to rendered bytes, during which
// every benchmark is interpreted and recorded — and then repeats the
// comparison of its first benchmark, compress, whose trace that pass
// left in the trace cache: each warm operation is three replays through
// the cache plus the rendering of compress's snapshot section.
//
// A second full pass would be the obvious warm operation, but the
// 1 GiB trace cache admits only 5 of the 7 traces, first come first
// served, so which two the second pass re-records depends on how the
// cold pass's concurrent recordings happened to finish, and the pass
// time with it (2.5 s or 3.7 s on a 2-core host). Compress records
// first, so its trace is always admitted.
func suiteChild(env *childEnv) (*childResult, error) {
	opt := experiment.DefaultOptions()
	warmSpec := opt.AdjustWorkload(workload.Suite()[0])
	collect := func() (*experiment.SuiteResults, error) { return experiment.Collect(opt) }
	golden := goldenSuiteSHA256
	warmOps := suiteWarmOps
	if env.cfg.Tiny {
		warmSpec, warmOps = tinySpec(), tinyWarmOps
		collect = func() (*experiment.SuiteResults, error) {
			c, err := experiment.Compare(warmSpec, opt)
			if err != nil {
				return nil, err
			}
			return &experiment.SuiteResults{Options: opt, Comparisons: []*experiment.Comparison{c}}, nil
		}
		// The reference is direct execution of every scheme: the
		// recording pass must render the same bytes.
		direct := opt
		direct.NoReplay = true
		c, err := experiment.Compare(warmSpec, direct)
		if err != nil {
			return nil, fmt.Errorf("suite reference: %w", err)
		}
		ref, err := render(&experiment.SuiteResults{Options: opt, Comparisons: []*experiment.Comparison{c}})
		if err != nil {
			return nil, err
		}
		golden = digest(ref)
	}
	env.ready()

	res := &childResult{}
	trace, endOp := env.tr.begin(0, 0, "acebench", "suite.cold")
	start := time.Now()
	_, endCollect := env.tr.begin(trace, trace, "experiment", "experiment.Collect")
	sr, err := collect()
	endCollect()
	if err != nil {
		return nil, fmt.Errorf("suite cold pass: %w", err)
	}
	_, endRender := env.tr.begin(trace, trace, "experiment", "experiment.render")
	out, err := render(sr)
	endRender()
	if err != nil {
		return nil, err
	}
	ms := millis(time.Since(start))
	endOp()
	res.Cold = append(res.Cold, ms)
	res.Done += float64(3 * len(sr.Comparisons))
	res.DoneWall += ms / 1e3
	res.Attempted++
	if got := digest(out); got != golden {
		res.fail("suite cold pass: snapshot sha256 %s, want %s", got, golden)
	}
	for _, c := range sr.Comparisons {
		for _, r := range []*experiment.Result{c.Base, c.BBVRun, c.HotRun} {
			if r.Disposition == experiment.RunRecorded {
				res.Recorded++
			}
		}
	}

	// Every warm comparison must render the bytes of the cold pass's.
	want, err := render(&experiment.SuiteResults{Options: opt, Comparisons: sr.Comparisons[:1]})
	if err != nil {
		return nil, err
	}
	// Collect the cold pass's garbage before the warm phase, so that no
	// collection of its ~2 GB heap lands inside a timed operation: the
	// warm operations' own garbage stays below the next heap goal.
	runtime.GC()
	for i := 0; i <= warmOps; i++ {
		trace, endOp := env.tr.begin(0, 0, "acebench", "suite.warm")
		start := time.Now()
		_, endCompare := env.tr.begin(trace, trace, "experiment", "experiment.Compare")
		c, err := experiment.Compare(warmSpec, opt)
		endCompare()
		if err != nil {
			return nil, fmt.Errorf("suite warm compare: %w", err)
		}
		_, endRender := env.tr.begin(trace, trace, "experiment", "experiment.render")
		out, err := render(&experiment.SuiteResults{Options: opt, Comparisons: []*experiment.Comparison{c}})
		endRender()
		if err != nil {
			return nil, err
		}
		ms := millis(time.Since(start))
		endOp()
		res.Attempted++
		if !bytes.Equal(out, want) {
			res.fail("suite warm compare of %s: snapshot differs from the cold pass's", warmSpec.Name)
		}
		if i > 0 { // the first is a warm-up, run while the cold pass's garbage is still collected
			res.Warm = append(res.Warm, ms)
			res.Done += 3
			res.DoneWall += ms / 1e3
		}
	}
	return res, nil
}

// render produces the schema-stable snapshot bytes `acetables -json`
// writes.
func render(sr *experiment.SuiteResults) ([]byte, error) {
	var buf bytes.Buffer
	if err := sr.Snapshot().WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
