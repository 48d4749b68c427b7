package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"semblock/internal/server"
)

// specJSON defines the workloads: collection configs, load shapes, tail
// percentiles and the layer → end-to-end metric map. BENCHMARK.json names
// the metrics; this file says how each workload produces them.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	NProc        int                              `json:"nproc"`
	GOMAXPROCS   int                              `json:"gomaxprocs"`
	SetupRepeats int                              `json:"setup_repeats"`
	Configs      map[string]server.CollectionSpec `json:"configs"`
	Resolve      server.ResolveRequest            `json:"resolve"`
	Workloads    []workloadSpec                   `json:"workloads"`
	Layers       map[string][]string              `json:"layers"`
}

type workloadSpec struct {
	Name         string `json:"name"`
	Config       string `json:"config"`
	Records      int    `json:"records"`
	Preload      int    `json:"preload"`
	PreloadBatch int    `json:"preload_batch"`
	Loop         string `json:"loop"`
	Batch        int    `json:"batch"`
	IntervalMS   int    `json:"interval_ms"`
	// ExhaustiveEvery makes every n-th load-phase resolve exhaustive and
	// the others budgeted (resolve-mixed).
	ExhaustiveEvery int               `json:"exhaustive_every"`
	FinalResolves   int               `json:"final_resolves"`
	Restarts        int               `json:"restarts"`
	Tails           map[string]string `json:"tails"`
	// TailWindows splits the ingest and delivery latencies, in the order
	// they were taken, into this many parts; their tails are the median
	// of the parts' (0 or 1: one part).
	TailWindows int `json:"tail_windows"`
	// Consumers are the workload's consumer groups; the first is the one
	// deliver_* is measured on.
	Consumers []consumerSpec `json:"consumers"`
}

// consumerSpec is one consumer group and how the workload takes its pairs:
// "sse" (a stream during the load), "drain" (on the ingest connection after
// every acknowledgement), "long-poll" (drain?wait on the second connection
// during the load) or "after" (drained once the send phase is over, so it
// pins the emission log until then).
type consumerSpec struct {
	Group string `json:"group"`
	Mode  string `json:"mode"`
}

func loadSpec() (*benchSpec, error) {
	var sp benchSpec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("parse spec.json: %w", err)
	}
	for _, w := range sp.Workloads {
		if w.ExhaustiveEvery < 1 || w.FinalResolves < 1 || w.Restarts < 1 || len(w.Consumers) == 0 {
			return nil, fmt.Errorf("spec.json: workload %s needs exhaustive_every, final_resolves, restarts and consumers", w.Name)
		}
		for name, p := range w.Tails {
			if _, err := parsePercentile(p); err != nil {
				return nil, fmt.Errorf("spec.json: workload %s, %s: %w", w.Name, name, err)
			}
		}
	}
	return &sp, nil
}

// mustPercentile parses a tail percentile loadSpec already validated.
func mustPercentile(s string) int {
	ppt, err := parsePercentile(s)
	if err != nil {
		panic(err)
	}
	return ppt
}

func (sp *benchSpec) workload(name string) (*workloadSpec, error) {
	for i := range sp.Workloads {
		if sp.Workloads[i].Name == name {
			return &sp.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// manifest is the part of BENCHMARK.json the harness reads: the metric
// names and units it must print.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !metricNameRE.MatchString(d.Name) {
			return nil, fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return nil, fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		}
	}
	return &m, nil
}
