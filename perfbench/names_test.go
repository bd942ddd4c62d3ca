package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the runs are
// judged by, in step with the metrics the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	match := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd)
	match("per_layer", b.PerLayer, perLayer)
}
