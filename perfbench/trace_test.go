package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestTracedRun drives the trivial module through a traced closed
// loop and a traced open loop, replays it, and checks that every
// per-layer metric is reported and the spans can be written. Under
// -race it also checks the tracer's concurrent use.
func TestTracedRun(t *testing.T) {
	triv := func(int64) ([]source, error) { return []source{trivSource()}, nil }
	for _, wl := range []*workload{
		{name: "closed", sources: triv},
		{name: "open", sources: triv, rate: 400},
	} {
		t.Run(wl.name, func(t *testing.T) {
			tr := newTracer()
			st, err := setUp(wl, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer st.srv.close()
			chk := newChecker(st.refs, len(machines))
			before, err := st.srv.counters()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := drive(st, chk, 200*time.Millisecond, tr)
			if err != nil {
				t.Fatal(err)
			}
			after, err := st.srv.counters()
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecord(wl, 1, time.Second, true)
			rec.summarize(st, chk, rs, after)
			if !rec.Correct {
				t.Fatalf("run not correct: %+v", rec)
			}
			tr.nextPhase()
			rep, err := replay(st, tr)
			if err != nil || rep.mismatches != 0 {
				t.Fatalf("replay: %v, %d mismatches", err, rep.mismatches)
			}
			rec.layers(st, rs, rep, tr.aggregate(), tr.count(), before, after)
			for _, d := range perLayer {
				if _, ok := rec.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range []string{"core.acquire_us", "mcache.hit_us", "mcache.miss_ms", "target.minst_per_s.x86", "mcache.hit_ratio"} {
				if rec.Metrics[name] <= 0 {
					t.Errorf("%s = %g, want > 0", name, rec.Metrics[name])
				}
			}
			if wl.rate == 0 && rec.Metrics["netserve.exec_overhead_us"] <= 0 {
				t.Error("closed loop reported no HTTP overhead")
			}
			if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
				t.Fatal(err)
			}
		})
	}
}
