package serve_test

import (
	"fmt"
	"testing"

	"omniware/internal/core"
	"omniware/internal/coretest"
	"omniware/internal/mcache"
	"omniware/internal/ovm"
	"omniware/internal/serve"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// TestConcurrentWorkloadParity is the serving-layer stress test: every
// example program and (outside -short mode) every benchmark workload
// runs on all four targets simultaneously, repeatedly, against one
// shared translation cache — with a wild faulting module per target
// mixed into the same queue. Run under -race this exercises the
// system's two sharing claims at once: cached translations are safe to
// execute concurrently in many hosts, and a faulting job cannot
// disturb its neighbors. Every clean job's outcome must match the
// interpreter reference from the shared coretest harness.
func TestConcurrentWorkloadParity(t *testing.T) {
	const reps = 2

	cases := coretest.ExampleCases()
	if !testing.Short() {
		bc, err := coretest.BenchCases(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, bc...)
	}

	// Build each module once and compute its interpreter reference —
	// the single source of truth all concurrent runs are compared to.
	type unit struct {
		c   *coretest.Case
		mod *ovm.Module
		ref coretest.Outcome
	}
	units := make([]unit, 0, len(cases))
	for i := range cases {
		c := &cases[i]
		mod, err := core.BuildC(c.Files, c.Opts)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ref, err := c.RunInterp(mod)
		if err != nil {
			t.Fatalf("%s: interpreter reference: %v", c.Name, err)
		}
		units = append(units, unit{c: c, mod: mod, ref: ref})
	}
	evil := buildMod(t, wildLoadSrc)

	cache := mcache.New(0)
	s := serve.New(serve.Config{Workers: 8, Cache: cache})
	defer s.Close()

	var jobs []serve.Job
	want := make(map[string]coretest.Outcome)
	for _, u := range units {
		u := u
		for _, m := range target.Machines() {
			for rep := 0; rep < reps; rep++ {
				id := fmt.Sprintf("%s/%s/%d", u.c.Name, m.Name, rep)
				want[id] = u.ref
				j := serve.Job{ID: id, Mod: u.mod, Machine: m, Opt: translate.Paper(true)}
				if setup := u.c.Setup; setup != nil {
					mod := u.mod
					j.Setup = func(h *core.Host) error { return setup(h, mod) }
				}
				if post := u.c.Post; post != nil {
					mod := u.mod
					j.Post = func(h *core.Host) (string, error) { return post(h, mod) }
				}
				jobs = append(jobs, j)
			}
		}
	}
	for _, m := range target.Machines() {
		jobs = append(jobs, serve.Job{
			ID: "evil/" + m.Name, Mod: evil, Machine: m, Opt: translate.Paper(true),
		})
	}

	results := s.Run(jobs)
	for _, r := range results {
		ref, clean := want[r.ID]
		if !clean {
			if !r.Faulted {
				t.Errorf("%s: wild load did not fault: %+v", r.ID, r)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
			continue
		}
		got := coretest.Outcome{Exit: r.ExitCode, Faulted: r.Faulted, Out: r.Output, Post: r.Post}
		if got != ref {
			t.Errorf("%s diverged from interpreter:\n  interp: %s\n  served: %s", r.ID, ref, got)
		}
	}

	// Cache accounting: singleflight guarantees exactly one translation
	// per distinct (module, machine) key no matter how the goroutines
	// interleave; everything else was a hit or a coalesced wait.
	nkeys := uint64((len(units) + 1) * len(target.Machines()))
	total := uint64(len(jobs))
	cs := cache.Counters()
	if n := cs.Load(metrics.CacheMisses); n != nkeys {
		t.Errorf("misses = %d, want one per key (%d)", n, nkeys)
	}
	if h, c := cs.Load(metrics.CacheHits), cs.Load(metrics.CacheCoalesced); h+c != total-nkeys {
		t.Errorf("hits+coalesced = %d+%d, want %d", h, c, total-nkeys)
	}
	snap := s.Snapshot()
	if snap.JobsRun+snap.JobsFailed != total || snap.QueueDepth != 0 {
		t.Errorf("job accounting off: %+v", snap)
	}
	if snap.JobsFailed != uint64(len(target.Machines())) {
		t.Errorf("jobs_failed = %d, want %d (one wild load per target)", snap.JobsFailed, len(target.Machines()))
	}
	if wantHR := float64(total-nkeys) / float64(total); snap.HitRate() != wantHR {
		t.Errorf("cache hit rate %.2f, want %.2f", snap.HitRate(), wantHR)
	}
}
