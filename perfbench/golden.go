package main

import (
	_ "embed"
	"encoding/json"
)

// golden is a workload's recorded output at one seed.
type golden struct {
	Digest uint64
	Cycles uint64
}

// goldens are the recorded outputs at the default seed 0. ft8-auto2 runs
// the ft8 fabric on two domains and must reproduce it exactly; seed 0 of
// ft8 is the unperturbed fabric of internal/bench/fattree.go (its cycle
// count is the scale experiment's ft8 row).
var goldens = map[string]golden{
	"ft8":       {Digest: 0xb82b7cd4e6cdc472, Cycles: 2347961},
	"ft8-auto2": {Digest: 0xb82b7cd4e6cdc472, Cycles: 2347961},
	"up4-chain": {Digest: 0x50b287ac0a134339, Cycles: 361739},
}

func goldenFor(name string, seed uint64) (golden, bool) {
	if seed != 0 {
		return golden{}, false
	}
	g, ok := goldens[name]
	return g, ok
}

// baselineSummary is one metric's spread over a baseline's runs.
type baselineSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// baseline is the first recorded baseline (baseline.json): per workload
// and end-to-end metric, the median and quartiles of its runs, keyed to
// the host class it was measured on.
type baseline struct {
	HostClass string                                `json:"host_class"`
	Note      string                                `json:"note"`
	Workloads map[string]map[string]baselineSummary `json:"workloads"`
}

//go:embed baseline.json
var baselineJSON []byte

func loadBaseline() *baseline {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil || b.HostClass == "" {
		return nil
	}
	return &b
}
