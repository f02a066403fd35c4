package core

import (
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	e := newEnv(t, leafProgram(512, 2, 400), DefaultParams(10))
	if err := e.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	db := e.mgr.Report().Database()
	if len(db.Hotspots) != 1 {
		t.Fatalf("exported %d hotspots, want 1", len(db.Hotspots))
	}
	if db.Hotspots[0].Method != "leaf" || db.Hotspots[0].Class != "L1D" {
		t.Errorf("exported entry = %+v", db.Hotspots[0])
	}
	data, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Mode != "decoupled" || len(back.Hotspots) != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Hotspots[0].Config[0] != db.Hotspots[0].Config[0] {
		t.Error("config changed in round trip")
	}
}

func TestReportRowsMatchHotspots(t *testing.T) {
	// Monolithic mode: every row spans both cache units.
	p := DefaultParams(10)
	p.Mode = ModeMonolithic
	e := newEnv(t, leafProgram(512, 2, 400), p)
	if err := e.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	rep := e.mgr.Report()
	hs := e.mgr.Hotspots()
	if len(rep.Hotspots) != len(hs) || len(hs) == 0 {
		t.Fatalf("report rows = %d, hotspots = %d", len(rep.Hotspots), len(hs))
	}
	for i, h := range hs {
		row := rep.Hotspots[i]
		if row.Method != h.Prof.Name || row.Class != h.Class || row.State != h.State() ||
			row.Tuned != h.TunedOK || row.TunedIPC != h.TunedIPC {
			t.Errorf("row %d = %+v, hotspot %s/%v/%s", i, row, h.Prof.Name, h.Class, h.State())
		}
		if len(row.Units) != 2 {
			t.Fatalf("row %d spans %d units, want 2", i, len(row.Units))
		}
		for j, u := range h.Units() {
			if row.Units[j] != u.Name() || row.Config[j] != h.BestConfig()[j] ||
				row.Settings[j] != u.Setting(h.BestConfig()[j]) {
				t.Errorf("row %d unit %d = %s/%d/%d, want %s/%d/%d", i, j,
					row.Units[j], row.Config[j], row.Settings[j],
					u.Name(), h.BestConfig()[j], u.Setting(h.BestConfig()[j]))
			}
		}
	}
	if db := rep.Database(); db.Mode != "monolithic" {
		t.Errorf("database mode = %q, want monolithic", db.Mode)
	}
}

func TestParseDatabaseRejectsGarbage(t *testing.T) {
	if _, err := ParseDatabase([]byte("{nope")); err == nil {
		t.Error("garbage should fail to parse")
	}
}

func TestWarmStartSkipsTuning(t *testing.T) {
	// First run tunes; second run warm-starts from the export and
	// must perform zero tuning measurements while choosing the same
	// configuration.
	first := newEnv(t, leafProgram(512, 2, 400), DefaultParams(10))
	if err := first.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	db := first.mgr.Report().Database()
	want := first.mgr.Hotspots()[0].BestConfig()[0]

	p := DefaultParams(10)
	p.WarmStart = db
	second := newEnv(t, leafProgram(512, 2, 400), p)
	if err := second.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	rep := second.mgr.Report()
	if rep.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1", rep.WarmStarts)
	}
	if rep.L1D.Tunings != 0 {
		t.Errorf("tunings = %d, want 0 (warm start)", rep.L1D.Tunings)
	}
	h := second.mgr.Hotspots()[0]
	if h.State() != "configured" || h.BestConfig()[0] != want {
		t.Errorf("warm-started config = %v, want [%d]", h.BestConfig(), want)
	}
	// Warm-started runs still cover execution.
	if rep.L1D.Coverage <= 0 {
		t.Error("coverage should be positive")
	}
}

func TestWarmStartModeMismatchIgnored(t *testing.T) {
	first := newEnv(t, leafProgram(512, 2, 400), DefaultParams(10))
	if err := first.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	db := first.mgr.Report().Database()
	db.Mode = "monolithic" // wrong mode: must be ignored

	p := DefaultParams(10)
	p.WarmStart = db
	second := newEnv(t, leafProgram(512, 2, 400), p)
	if err := second.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	rep := second.mgr.Report()
	if rep.WarmStarts != 0 {
		t.Error("mode-mismatched database must not warm-start")
	}
	if rep.L1D.Tunings == 0 {
		t.Error("the descent should have run")
	}
}

func TestWarmStartUnknownMethodFallsBack(t *testing.T) {
	db := &Database{Mode: "decoupled", Hotspots: []SavedHotspot{
		{Method: "someone-else", Class: "L1D", Config: []int{0}},
	}}
	p := DefaultParams(10)
	p.WarmStart = db
	e := newEnv(t, leafProgram(512, 2, 400), p)
	if err := e.eng.Run(0); err != nil {
		t.Fatal(err)
	}
	rep := e.mgr.Report()
	if rep.WarmStarts != 0 || rep.L1D.Tunings == 0 {
		t.Error("unknown method must fall back to tuning")
	}
}

func TestExportOmitsUntunedAndPassive(t *testing.T) {
	// Stop mid-run so tuning cannot complete: nothing to export.
	e := newEnv(t, leafProgram(512, 2, 400), DefaultParams(10))
	if err := e.eng.Run(80_000); err != nil && err.Error() != "vm: instruction budget exhausted" {
		t.Fatal(err)
	}
	db := e.mgr.Report().Database()
	for _, h := range db.Hotspots {
		if h.Config == nil {
			t.Errorf("exported entry without config: %+v", h)
		}
	}
	// The leaf needs ~30 invocations to finish its descent; 80K
	// instructions is ~12.
	if len(db.Hotspots) != 0 {
		t.Errorf("exported %d hotspots from an unfinished run, want 0", len(db.Hotspots))
	}
}
