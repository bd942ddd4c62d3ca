package main

import (
	"strings"
	"testing"
	"time"

	"omniware/internal/serve/metrics"
)

func TestCheckerFlagsWrongResults(t *testing.T) {
	c := newChecker([]ref{{exit: 3, out: "ok\n"}}, len(machines))
	p := pair{0, 1}
	if !c.check(p, "ok", 3, "ok\n", 100, 150) {
		t.Fatal("matching outcome reported wrong")
	}
	for _, bad := range []struct {
		name          string
		status        string
		exit          int32
		out           string
		insts, cycles uint64
	}{
		{"exit", "ok", 4, "ok\n", 100, 150},
		{"output", "ok", 3, "no\n", 100, 150},
		{"fault", "fault(contained)", 3, "ok\n", 100, 150},
		{"cycles", "ok", 3, "ok\n", 100, 151},
		{"insts", "ok", 3, "ok\n", 99, 150},
	} {
		if c.check(p, bad.status, bad.exit, bad.out, bad.insts, bad.cycles) {
			t.Errorf("%s mismatch reported correct", bad.name)
		}
	}
	if got := c.wrong.Load(); got != 5 {
		t.Errorf("wrong = %d, want 5", got)
	}
	if c.simCycles() != 150 {
		t.Errorf("simCycles = %d, want the first run's 150", c.simCycles())
	}
}

// TestWrongReferenceFails runs the real triv-closed path against a
// reference that is deliberately wrong: every job must count as
// failed and the run as incorrect.
func TestWrongReferenceFails(t *testing.T) {
	wl := workloadByName("triv-closed")
	st, err := setUp(wl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.close()
	st.refs[0].exit++
	chk := newChecker(st.refs, len(machines))
	rs, err := drive(st, chk, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := st.srv.counters()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecord(wl, 1, time.Second, false)
	rec.summarize(st, chk, rs, after)
	if rec.Correct || rec.Attempted == 0 || rec.Failed != rec.Attempted {
		t.Fatalf("wrong reference passed: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Mismatches) == 0 || !strings.Contains(rec.Mismatches[0], "reference") {
		t.Errorf("mismatch not described: %v", rec.Mismatches)
	}
}

func TestLateGeneratorInvalidatesRun(t *testing.T) {
	wl := workloadByName("mixed-open")
	st := &state{wl: wl, progs: []*program{{source: trivSource()}}}
	chk := newChecker([]ref{{}}, len(machines))
	p := pair{0, 0}
	chk.check(p, "ok", 0, "", 1, 1)
	rs := &runStats{wall: time.Second, outcomes: []outcome{{light: true, ok: true}}, late: []float64{1, lateBoundMs + 1}}
	rec := newRecord(wl, 1, time.Second, false)
	rec.summarize(st, chk, rs, &metrics.Snapshot{})
	if rec.Correct || rec.Invalid == "" {
		t.Fatalf("run with lateness past %gms counted: %+v", lateBoundMs, rec)
	}
}

func TestScheduleDealsWholeRounds(t *testing.T) {
	deck := []pair{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}}
	a, b := newSchedule(deck, 7), newSchedule(deck, 7)
	seen := map[pair]int{}
	for i := 0; i < 3*len(deck); i++ {
		ia, pa, _ := a.next(false)
		ib, pb, _ := b.next(false)
		if ia != i || ib != i || pa != pb {
			t.Fatalf("job %d: schedules with one seed differ", i)
		}
		seen[pa]++
	}
	for _, p := range deck {
		if seen[p] != 3 {
			t.Errorf("pair %v dealt %d times in 3 rounds", p, seen[p])
		}
	}
	// Stopping mid-round finishes the round first.
	a.next(false)
	for k := 1; k < len(deck); k++ {
		if _, _, ok := a.next(true); !ok {
			t.Fatalf("stopped before the round ended (job %d of the round)", k)
		}
	}
	if _, _, ok := a.next(true); ok {
		t.Fatal("dealt past the round boundary after stop")
	}
	if _, _, ok := a.next(false); ok {
		t.Fatal("dealt after the schedule closed")
	}
}
