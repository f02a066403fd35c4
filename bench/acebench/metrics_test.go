package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

const specFile = "../../BENCHMARK.json"

// TestDeclarationsMatchHarness keeps BENCHMARK.json and the harness in
// step: every metric the harness emits is declared with the same unit,
// and every declared metric is emitted.
func TestDeclarationsMatchHarness(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []metricDecl, emitted []struct{ name, unit string }) {
		units := make(map[string]string)
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, m := range emitted {
			u, ok := units[m.name]
			if !ok {
				t.Errorf("%s metric %s is emitted but not declared", kind, m.name)
			} else if u != m.unit {
				t.Errorf("%s metric %s: declared unit %q, emitted %q", kind, m.name, u, m.unit)
			}
			delete(units, m.name)
		}
		for name := range units {
			t.Errorf("%s metric %s is declared but never emitted", kind, name)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := plans[w.Name]; !ok {
			t.Errorf("declared workload %s has no plan", w.Name)
		}
	}
	if len(names) != len(workloadOrder) {
		t.Errorf("declared workloads %v, harness runs %v", names, workloadOrder)
	}
}

// TestSpecShape checks BENCHMARK.json against the benchmark format:
// its keys, name and unit syntax, directions, and bounds (at most 0.25,
// set-up time with the largest).
func TestSpecShape(t *testing.T) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("unexpected key %q", k)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %+v: bad or repeated name, or why missing or too long", w)
		}
		seen[w.Name] = true
	}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, bad unit or direction", m)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}
