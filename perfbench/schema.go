package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// benchFile is BENCHMARK.json: the benchmark's command, workloads and
// metrics, with the bound by which each end-to-end metric may worsen.
type benchFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// parseBenchFile decodes BENCHMARK.json strictly (unknown keys are
// errors) and validates it.
func parseBenchFile(data []byte) (benchFile, error) {
	var b benchFile
	if len(data) > 64<<10 {
		return b, fmt.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, b.validate()
}

func (b benchFile) validate() error {
	if len(b.Command) == 0 || len(b.Command) > 32 {
		return fmt.Errorf("command: want 1..32 strings, got %d", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || (len(c) > 0 && c[0] == '/') || bytes.Contains([]byte(c), []byte("..")) {
			return fmt.Errorf("command: bad argument %q", c)
		}
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		return fmt.Errorf("paths: want 1..16, got %d", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || bytes.Contains([]byte(p), []byte("..")) {
			return fmt.Errorf("paths: bad path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		return fmt.Errorf("workloads: want 2..8, got %d", len(b.Workloads))
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s: bad name %q", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("%s: name %q used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range b.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		return fmt.Errorf("end_to_end: want 1..16, got %d", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		return fmt.Errorf("per_layer: want 1..128, got %d", len(b.PerLayer))
	}
	setup := false
	for _, m := range b.EndToEnd {
		if err := checkMetric("end_to_end", m, name); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end: missing setup_s (unit s, better lower)")
	}
	for _, m := range b.PerLayer {
		if err := checkMetric("per_layer", m, name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per_layer %s: has a bound", m.Name)
		}
	}
	return nil
}

func checkMetric(kind string, m metric, name func(string, string) error) error {
	if err := name(kind, m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("%s %s: bad unit %q", kind, m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("%s %s: better must be lower or higher", kind, m.Name)
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// select keeps exactly the metrics the file lists for the mode, failing
// if the workload did not produce one of them.
func (b benchFile) selectMetrics(traced bool, got map[string]float64) (map[string]value, error) {
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	out := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, nil
}
