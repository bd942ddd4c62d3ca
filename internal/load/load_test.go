package load_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"omniware/internal/load"
	"omniware/internal/serve/metrics"
)

func TestScheduleDeterministicAndWeighted(t *testing.T) {
	cfg := load.Config{
		Jobs:      400,
		Seed:      42,
		Workloads: load.Mix{load.TrivLoad: 3, "compress": 1},
		Targets:   load.Mix{"mips": 1, "x86": 1},
	}
	a, err := load.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	counts := map[string]int{}
	for _, s := range a {
		counts[s.Workload]++
		if s.Target != "mips" && s.Target != "x86" {
			t.Fatalf("target %q not in mix", s.Target)
		}
	}
	// 3:1 weighting over 400 draws: trivload should clearly dominate.
	if counts[load.TrivLoad] <= counts["compress"] {
		t.Fatalf("weights ignored: %v", counts)
	}
	if counts["compress"] == 0 {
		t.Fatalf("compress never drawn: %v", counts)
	}

	c, err := load.Schedule(load.Config{Jobs: 400, Seed: 43,
		Workloads: cfg.Workloads, Targets: cfg.Targets})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleRejectsBadMix(t *testing.T) {
	if _, err := load.Schedule(load.Config{Workloads: load.Mix{"li": -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := load.Schedule(load.Config{Workloads: load.Mix{"li": 0}}); err == nil {
		t.Fatal("zero-total mix accepted")
	}
}

// One real end-to-end run against an in-process server: the report
// must validate, round-trip through JSON, and agree with itself
// across the client and server views.
func TestRunClosedLoop(t *testing.T) {
	b, err := load.Boot(load.BootOpts{Workers: 2, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cfg := load.Config{
		Addr:      b.Base,
		Mode:      "closed",
		Clients:   4,
		Jobs:      24,
		Seed:      7,
		Workloads: load.Mix{load.TrivLoad: 1},
		Targets:   load.Mix{"mips": 1, "sparc": 1},
		Prewarm:   true,
		Check:     true,
	}
	rep, err := load.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Load.OK != 24 || rep.Load.Faults != 0 || rep.Load.Errors != 0 {
		t.Fatalf("outcomes: %+v", rep.Load)
	}
	if rep.Load.Parity != 0 || rep.Load.Checked != 24 {
		t.Fatalf("parity accounting: %+v", rep.Load)
	}
	// Prewarm ran one job per (workload, target) pair, so every
	// measured job hits the cache.
	if rep.Load.Warm != 24 || rep.Load.Cold != 0 {
		t.Fatalf("prewarmed run saw cache misses: warm=%d cold=%d", rep.Load.Warm, rep.Load.Cold)
	}
	if rep.Server.JobsRun != 24 {
		t.Fatalf("server ran %d jobs, want 24", rep.Server.JobsRun)
	}
	if rep.Server.SandboxPct <= 0 {
		t.Fatalf("SFI run attributed no sandbox overhead: %+v", rep.Server)
	}
	for _, stage := range []string{"queue_wait", "translate", "run"} {
		if rep.Server.Stages[stage].Count == 0 {
			t.Fatalf("stage %s missing from interval delta: %+v", stage, rep.Server.Stages)
		}
	}

	// The JSON artifact round-trips losslessly under strict decoding —
	// what omniload validate does to checked-in BENCH files.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back load.Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(&back); err != nil {
		t.Fatal(err)
	}

	out := load.Format(rep)
	for _, want := range []string{"jobs/sec", "warm=24", "stage run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, out)
		}
	}
}

func TestRunOpenLoop(t *testing.T) {
	b, err := load.Boot(load.BootOpts{Workers: 2, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rep, err := load.Run(load.Config{
		Addr:      b.Base,
		Mode:      "open",
		Rate:      200,
		Jobs:      10,
		Seed:      1,
		Workloads: load.Mix{load.TrivLoad: 1},
		Targets:   load.Mix{"x86": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Load.OK != 10 {
		t.Fatalf("open loop: %+v", rep.Load)
	}
	if rep.Config.Rate != 200 || rep.Config.Mode != "open" {
		t.Fatalf("config summary: %+v", rep.Config)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &load.Report{
		Schema: load.Schema,
		Config: load.ConfigSummary{Jobs: 2},
		Load: load.LoadStats{
			DurationSec: 1, JobsPerSec: 2, Jobs: 2, OK: 2,
			Warm: 1, Cold: 1,
		},
	}
	if err := load.Validate(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := *good
	bad.Schema = "omniload/v0"
	if err := load.Validate(&bad); err == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = *good
	bad.Load.OK = 1 // ok+faults+errors no longer sums to jobs
	if err := load.Validate(&bad); err == nil {
		t.Fatal("broken accounting accepted")
	}
	bad = *good
	bad.Load.Latency = load.LatencyStats{P50Us: 5, P95Us: 3, P99Us: 4}
	if err := load.Validate(&bad); err == nil {
		t.Fatal("non-monotone quantiles accepted")
	}
	// Any nonzero correctness counter fails the report.
	for name, set := range map[string]func(*load.ServerDelta){
		"cache_rejected":         func(d *load.ServerDelta) { d.CacheRejected = 1 },
		"cache_disagreements":    func(d *load.ServerDelta) { d.CacheDisagreements = 1 },
		"cache_disk_quarantines": func(d *load.ServerDelta) { d.CacheDiskQuarantines = 1 },
		"cache_spot_check_fails": func(d *load.ServerDelta) { d.CacheSpotCheckFails = 1 },
	} {
		bad = *good
		set(&bad.Server)
		if err := load.Validate(&bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("nonzero %s accepted (err %v)", name, err)
		}
	}
}

// Delta carries every metrics.Table metric under its JSON name:
// counters and reason families as the run's interval (families with
// nonzero reasons only), gauges at their level after the run.
func TestDeltaWalksRegistry(t *testing.T) {
	snap := func(scale uint64) metrics.Snapshot {
		vals := map[string]any{}
		for id := range metrics.Table {
			m := &metrics.Table[id]
			v := scale * uint64(10*(id+1))
			if m.Reasons == nil {
				vals[m.Name] = v
				continue
			}
			split := map[string]uint64{}
			for r, reason := range m.Reasons {
				split[reason] = 0
				if r > 0 {
					split[reason] = v + uint64(r)*scale
				}
			}
			vals[m.Name] = split
		}
		blob, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		var s metrics.Snapshot
		if err := json.Unmarshal(blob, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	blob, err := json.Marshal(load.Delta(snap(1), snap(3)))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	for id := range metrics.Table {
		m := &metrics.Table[id]
		v := uint64(10 * (id + 1))
		if m.Reasons == nil {
			want := 2 * v
			if m.Gauge {
				want = 3 * v
			}
			if string(got[m.Name]) != fmt.Sprint(want) {
				t.Errorf("%s: delta %s, want %d", m.Name, got[m.Name], want)
			}
			continue
		}
		var split map[string]uint64
		if err := json.Unmarshal(got[m.Name], &split); err != nil {
			t.Fatalf("%s: delta %s: %v", m.Name, got[m.Name], err)
		}
		if len(split) != len(m.Reasons)-1 {
			t.Errorf("%s: delta %v, want the nonzero reasons only", m.Name, split)
		}
		for r, reason := range m.Reasons[1:] {
			if want := 2 * (v + uint64(r+1)); split[reason] != want {
				t.Errorf("%s[%s]: delta %d, want %d", m.Name, reason, split[reason], want)
			}
		}
	}
}

func TestMeasureAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks in -short mode")
	}
	stats, err := load.MeasureAllocs()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no alloc stats")
	}
	for _, s := range stats {
		if s.Name == "" || s.AllocsPerOp < 0 {
			t.Fatalf("malformed stat %+v", s)
		}
	}
	// The fresh-host path allocates by construction (a new address
	// space per op); it anchors the pooled path's comparison.
	if stats[0].Name != "exec_fresh_host" || stats[0].AllocsPerOp == 0 {
		t.Fatalf("fresh-host baseline implausible: %+v", stats[0])
	}
	// The pooled path is the optimization under test: zero allocations
	// per warm-cache sandboxed execute.
	if stats[1].Name != "exec_pooled_host" {
		t.Fatalf("pooled stat missing: %+v", stats)
	}
	if !raceEnabled && stats[1].AllocsPerOp != 0 {
		t.Fatalf("pooled execute path allocates: %+v", stats[1])
	}
}
