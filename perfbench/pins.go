package main

import (
	_ "embed"
	"encoding/json"
)

// pinsJSON holds the digests of every checked operation's simulated
// statistics at seed 1 and each workload's default scale. Regenerate it (and
// testdata/fig1_report.txt) with `go test -run TestPins -update` when a
// change is meant to move simulated results.
//
//go:embed pins.json
var pinsJSON []byte

// fig1Report is fig1_sweep's rendered report at the pinned input.
//
//go:embed testdata/fig1_report.txt
var fig1Report string

type pinFile struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]pinSet `json:"workloads"`
}

type pinSet struct {
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

// pinsFor returns the pinned digests that apply to a run: nil away from the
// pinned seed or the workload's default scale, and otherwise a map in which
// a missing or stale entry fails the gate (as does an unreadable pin file).
func pinsFor(name string, seed int64, scale float64) map[string]string {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		return map[string]string{}
	}
	if seed != f.Seed || scale != workloads[name].scale {
		return nil
	}
	out := map[string]string{}
	ps, ok := f.Workloads[name]
	if !ok || ps.Scale != scale {
		return out
	}
	for k, v := range ps.Digests {
		out[k] = v
	}
	if name == "fig1_sweep" && fig1Report != "" {
		if d, err := digest(fig1Report); err == nil {
			out["report"] = d
		}
	}
	return out
}
