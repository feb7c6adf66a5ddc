package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func repoBenchFile(t *testing.T) []byte {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRepoBenchmarkFileIsValid(t *testing.T) {
	b, err := parseBenchFile(repoBenchFile(t))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for name := range workloads {
		if listed[name] == unlisted[name] {
			t.Errorf("workload %s: listed in BENCHMARK.json %v, marked unlisted %v; want exactly one", name, listed[name], unlisted[name])
		}
	}
}

func TestBenchFileRejects(t *testing.T) {
	for name, mutate := range map[string]func(m map[string]any){
		"unknown key":     func(m map[string]any) { m["extra"] = 1 },
		"bound too loose": func(m map[string]any) { e2e(m)[0]["bound"] = 0.3 },
		"no setup_s": func(m map[string]any) {
			for _, x := range e2e(m) {
				if x["name"] == "setup_s" {
					x["name"] = "boot_s"
				}
			}
		},
		"bad metric name":   func(m map[string]any) { e2e(m)[0]["name"] = "p50 ms" },
		"name starts badly": func(m map[string]any) { e2e(m)[0]["name"] = ".p50" },
		"duplicate name":    func(m map[string]any) { e2e(m)[1]["name"] = e2e(m)[0]["name"] },
		"bad unit":          func(m map[string]any) { e2e(m)[0]["unit"] = "milli seconds" },
		"bad better":        func(m map[string]any) { e2e(m)[0]["better"] = "faster" },
		"absolute path":     func(m map[string]any) { m["paths"] = []any{"/perfbench"} },
		"escaping path":     func(m map[string]any) { m["paths"] = []any{"../x"} },
		"one workload":      func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] },
		"run too long":      func(m map[string]any) { m["run_seconds"] = 61 },
		"per-layer bound":   func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["bound"] = 0.1 },
	} {
		var m map[string]any
		if err := json.Unmarshal(repoBenchFile(t), &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		data, _ := json.Marshal(m)
		if _, err := parseBenchFile(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func e2e(m map[string]any) []map[string]any {
	var out []map[string]any
	for _, x := range m["end_to_end"].([]any) {
		out = append(out, x.(map[string]any))
	}
	return out
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"p50_ms", "jobs.run_ms.sweep", "fleet.claim-wait", "9lives"} {
		if !nameRE.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "jobs.run_ms{kind}", "µs", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSelectMetricsNeedsEveryListedMetric(t *testing.T) {
	b, err := parseBenchFile(repoBenchFile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range b.EndToEnd {
		got[m.Name] = 1
	}
	got["not_listed"] = 2
	sel, err := b.selectMetrics(false, got)
	if err != nil || len(sel) != len(b.EndToEnd) {
		t.Fatalf("select: %v, %d metrics", err, len(sel))
	}
	if _, ok := sel["not_listed"]; ok {
		t.Error("an unlisted metric leaked into the result")
	}
	delete(got, b.EndToEnd[0].Name)
	if _, err := b.selectMetrics(false, got); err == nil {
		t.Error("a missing metric was not reported")
	}
	if _, err := b.selectMetrics(true, got); err == nil {
		t.Error("traced selection must demand the per-layer metrics")
	}
}
