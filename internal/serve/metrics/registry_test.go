package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// walkValue is the distinct value the walk gives metric id (and, for a
// family, reason r).
func walkValue(id, r int) uint64 { return uint64(1000*(id+1) + r + 1) }

// walkCounters counts walkValue into a live set for every metric.
func walkCounters() *Counters {
	var c Counters
	for id := range Table {
		d := &Table[id]
		if d.Reasons == nil {
			c.Add(ID(id), walkValue(id, 0))
			continue
		}
		for r, reason := range d.Reasons {
			for n := walkValue(id, r); n > 0; n-- {
				c.AddReason(ID(id), reason)
			}
		}
	}
	return &c
}

// seriesName is the Prometheus series of a metric.
func seriesName(d *Def) string {
	if d.Gauge {
		return "omni_" + d.Name
	}
	return "omni_" + d.Name + "_total"
}

// Every Table metric, given a distinct value through a live Counters
// set, appears under its name in JSON, Prometheus and Text, and the
// fleet merge doubles it.
func TestRegistryWalk(t *testing.T) {
	names := map[string]bool{}
	for id := range Table {
		d := &Table[id]
		if d.Name == "" || d.Help == "" || (d.field == nil) == (d.family == nil) {
			t.Fatalf("Table[%d] is incomplete: %+v", id, *d)
		}
		if names[d.Name] {
			t.Fatalf("metric name %q declared twice", d.Name)
		}
		names[d.Name] = true
	}

	var s Snapshot
	walkCounters().AddTo(&s)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var js map[string]json.RawMessage
	if err := json.Unmarshal(blob, &js); err != nil {
		t.Fatal(err)
	}
	prom := promLines(t, s.Prom())
	text := s.Text()
	doubled := MergeSnapshots(s, s)

	for id := range Table {
		d := &Table[id]
		if d.Reasons == nil {
			want := walkValue(id, 0)
			if got := d.Value(&s); got != want {
				t.Errorf("%s: counted %d, snapshot holds %d", d.Name, want, got)
			}
			if got := string(js[d.Name]); got != fmt.Sprint(want) {
				t.Errorf("%s: JSON %q, want %d", d.Name, got, want)
			}
			if got := prom[seriesName(d)]; got != fmt.Sprint(want) {
				t.Errorf("%s: Prometheus %s = %q, want %d", d.Name, seriesName(d), got, want)
			}
			if line := fmt.Sprintf("%-18s %d\n", d.Name, want); !strings.Contains(text, line) {
				t.Errorf("%s: Text lacks %q", d.Name, line)
			}
			if got := d.Value(&doubled); got != 2*want {
				t.Errorf("%s: merged %d, want %d", d.Name, got, 2*want)
			}
			continue
		}
		var split map[string]uint64
		if err := json.Unmarshal(js[d.Name], &split); err != nil {
			t.Fatalf("%s: JSON %s: %v", d.Name, js[d.Name], err)
		}
		for r, reason := range d.Reasons {
			want := walkValue(id, r)
			if split[reason] != want {
				t.Errorf("%s[%s]: JSON %d, want %d", d.Name, reason, split[reason], want)
			}
			series := fmt.Sprintf("%s{reason=%q}", seriesName(d), reason)
			if got := prom[series]; got != fmt.Sprint(want) {
				t.Errorf("%s: Prometheus %s = %q, want %d", d.Name, series, got, want)
			}
			line := fmt.Sprintf("%-18s %d\n", strings.TrimSuffix(d.Name, "s")+"_"+reason, want)
			if !strings.Contains(text, line) {
				t.Errorf("%s: Text lacks %q", d.Name, line)
			}
			if got := d.ByReason(&doubled)[reason]; got != 2*want {
				t.Errorf("%s[%s]: merged %d, want %d", d.Name, reason, got, 2*want)
			}
		}
	}
}

// A fresh server's snapshot shows every reason of every family at
// zero on each surface, and no peer-fill lines in Text until the node
// is clustered.
func TestRegistryWalkFreshSnapshot(t *testing.T) {
	var m Metrics
	s := m.Snapshot()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var js map[string]json.RawMessage
	if err := json.Unmarshal(blob, &js); err != nil {
		t.Fatal(err)
	}
	prom := promLines(t, s.Prom())
	text := s.Text()
	for id := range Table {
		d := &Table[id]
		switch {
		case d.Reasons != nil:
			var split map[string]uint64
			if err := json.Unmarshal(js[d.Name], &split); err != nil || len(split) != len(d.Reasons) {
				t.Errorf("%s: JSON %s, want every reason at zero", d.Name, js[d.Name])
			}
			for _, reason := range d.Reasons {
				if v, ok := split[reason]; !ok || v != 0 {
					t.Errorf("%s[%s]: JSON %d, %v; want pre-registered 0", d.Name, reason, v, ok)
				}
				if got := prom[fmt.Sprintf("%s{reason=%q}", seriesName(d), reason)]; got != "0" {
					t.Errorf("%s[%s]: Prometheus %q, want 0", d.Name, reason, got)
				}
				if line := fmt.Sprintf("%-18s 0\n", strings.TrimSuffix(d.Name, "s")+"_"+reason); !strings.Contains(text, line) {
					t.Errorf("%s: Text lacks %q", d.Name, line)
				}
			}
		case d.Peer:
			if strings.Contains(text, d.Name+" ") {
				t.Errorf("%s: Text shows a peer-fill counter on a single node", d.Name)
			}
			if got := prom[seriesName(d)]; got != "0" {
				t.Errorf("%s: Prometheus %q, want 0", d.Name, got)
			}
		default:
			if got := prom[seriesName(d)]; got != "0" {
				t.Errorf("%s: Prometheus %q, want 0", d.Name, got)
			}
		}
	}
}

// Sub subtracts counters, reason families and stage histograms, keeps
// gauges at the later level, and saturates at zero when the earlier
// snapshot is larger (a restarted server).
func TestSnapshotSub(t *testing.T) {
	var m Metrics
	m.Observe(StageRun, time.Millisecond)
	first := m.Snapshot()
	m.Observe(StageRun, 4*time.Millisecond)
	m.Observe(StageRun, 4*time.Millisecond)
	run := m.Snapshot().Sub(first).Stages["run"]
	if run.Count != 2 || run.P50Us < 2000 {
		t.Errorf("run interval %+v, want the two 4ms observations", run)
	}

	var before, after Snapshot
	walkCounters().AddTo(&before)
	c := walkCounters()
	c.AddTo(&after)
	c.AddTo(&after)
	iv := after.Sub(before)
	restarted := before.Sub(after)
	for id := range Table {
		d := &Table[id]
		if d.Reasons != nil {
			for r, reason := range d.Reasons {
				if got, want := d.ByReason(&iv)[reason], walkValue(id, r); got != want {
					t.Errorf("%s[%s]: interval %d, want %d", d.Name, reason, got, want)
				}
				if got := d.ByReason(&restarted)[reason]; got != 0 {
					t.Errorf("%s[%s]: restarted interval %d, want 0", d.Name, reason, got)
				}
			}
			continue
		}
		want, wantRestart := walkValue(id, 0), uint64(0)
		if d.Gauge {
			want, wantRestart = 2*walkValue(id, 0), walkValue(id, 0)
		}
		if got := d.Value(&iv); got != want {
			t.Errorf("%s: interval %d, want %d", d.Name, got, want)
		}
		if got := d.Value(&restarted); got != wantRestart {
			t.Errorf("%s: restarted interval %d, want %d", d.Name, got, wantRestart)
		}
	}
}
