package core

import (
	"encoding/json"
	"fmt"

	"acedo/internal/hotspot"
)

// The paper's framework stores each hotspot's chosen configuration in
// the DO database so recurring hotspots reuse it with zero latency
// within a run (Section 3.3). This file extends that idea across runs:
// the database can be exported after a run and fed back as a warm
// start, so a subsequent execution of the same program configures its
// hotspots at promotion time without any tuning descent — the same
// effect the paper's Section 6 envisions from static analysis, but
// from measured history.

// SavedHotspot is one hotspot's persisted tuning outcome. Hotspots are
// keyed by method name, which is stable across runs of the same
// program.
type SavedHotspot struct {
	Method   string  `json:"method"`
	Class    string  `json:"class"`
	Config   []int   `json:"config"`
	TunedIPC float64 `json:"tuned_ipc"`
	MeanSize float64 `json:"mean_size"`
}

// Database is the persistable slice of the DO database: the tuning
// outcomes of every hotspot that completed its descent.
type Database struct {
	// Mode records the tuning strategy the outcomes belong to;
	// warm-starting a run in a different mode is rejected because
	// the configuration vectors would not line up.
	Mode     string         `json:"mode"`
	Hotspots []SavedHotspot `json:"hotspots"`
}

// Database derives the exportable DO database from the report's
// hotspot rows. Passive and untuned hotspots are omitted: there is
// nothing trustworthy to replay.
func (r Report) Database() *Database {
	db := &Database{Mode: r.Mode.String()}
	for _, h := range r.Hotspots {
		if !h.Tuned || h.Passive {
			continue
		}
		db.Hotspots = append(db.Hotspots, SavedHotspot{
			Method:   h.Method,
			Class:    h.Class.String(),
			Config:   h.Config,
			TunedIPC: h.TunedIPC,
			MeanSize: h.MeanSize,
		})
	}
	return db
}

// Marshal encodes the database as JSON.
func (d *Database) Marshal() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// ParseDatabase decodes a database produced by Marshal.
func ParseDatabase(data []byte) (*Database, error) {
	var d Database
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("core: parse database: %w", err)
	}
	return &d, nil
}

// lookup returns the saved outcome for a method name and class.
func (d *Database) lookup(method string, class hotspot.Class) (SavedHotspot, bool) {
	for _, h := range d.Hotspots {
		if h.Method == method && h.Class == class.String() {
			return h, true
		}
	}
	return SavedHotspot{}, false
}

// validFor reports whether the database can warm-start a manager in
// the given mode.
func (d *Database) validFor(mode Mode) bool {
	return d != nil && d.Mode == mode.String()
}
