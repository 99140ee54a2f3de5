package main

import (
	_ "embed"
	"encoding/json"
)

// goldens are the digests the seed commit's model produced for every
// workload's deterministic outputs. A change to any simulated number,
// rendered table, frontier document or served report fails the gate
// rather than passing as a speed-up. Refresh them only with a change
// that alters the model on purpose: each gate failure prints the digest
// it measured.
type goldens struct {
	SuiteStats     string `json:"suite_stats"`
	SuiteTables    string `json:"suite_tables"`
	SweepPoints    string `json:"sweep_points"`
	SweepFrontiers string `json:"sweep_frontiers"`
	ServiceHot     string `json:"service_hot"`
}

//go:embed golden.json
var goldenJSON []byte

var golden = func() goldens {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("fitsperf: golden.json: " + err.Error())
	}
	return g
}()
