package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"omniware/internal/target"
	"omniware/internal/trace"
)

// fullSnapshot is one snapshot with every surface populated: each
// scalar a distinct nonzero value, every audit reason and stage, two
// active targets and a cluster section.
func fullSnapshot() Snapshot {
	stage := func(base time.Duration, n int) StageSnapshot {
		var h trace.Histogram
		for i := 1; i <= n; i++ {
			h.Observe(time.Duration(i) * base)
		}
		return stageOf(h.Snapshot())
	}
	s := Snapshot{
		JobsSubmitted: 101, JobsRun: 102, JobsFailed: 103, FaultsContained: 104,
		Timeouts: 105, Translations: 106, SimInsts: 107, SimCycles: 108, QueueDepth: 109,
		CacheHits: 110, CacheCoalesced: 111, CacheMisses: 112, CacheEvictions: 113,
		CacheRejected: 114, CacheEntries: 115, CacheBytes: 116,
		CacheDiskHits: 117, CacheDiskWrites: 118, CacheDiskQuarantines: 119,
		CacheDisagreements: 120,
		CachePeerHits:      121, CachePeerQuarantines: 122, CacheSpotChecks: 123, CacheSpotCheckFails: 124,
		CacheAudits: 125, CacheAuditHits: 126, CacheAuditDiskWrites: 127, CacheAuditQuarantines: 128,
		AuditPass:    129,
		AuditWarns:   map[string]uint64{},
		AuditRejects: map[string]uint64{},
		Stages:       map[string]StageSnapshot{},
	}
	for i, r := range AuditReasons {
		s.AuditWarns[r] = uint64(201 + i)
		s.AuditRejects[r] = uint64(301 + i)
	}
	for i, name := range StageNames {
		s.Stages[name] = stage(time.Duration(i+1)*3*time.Microsecond, i+2)
	}
	for i, a := range []target.Arch{target.MIPS, target.X86} {
		counts := [target.NumCats]uint64{}
		for c := range counts {
			counts[c] = uint64(1000*(i+1) + 10*c + 1)
		}
		ts := TargetSnapshot{
			Target: a.String(),
			Jobs:   uint64(401 + i),
			Counts: map[string]uint64{},
			Run:    stage(time.Duration(i+1)*time.Millisecond, 3),
		}
		for c, n := range counts {
			ts.Counts[target.ExpCat(c).String()] = n
		}
		attr := target.Result{Counts: counts}.Attribution()
		ts.Insts, ts.AppInsts, ts.Sandbox, ts.Sched = attr.Total(), attr.App, attr.Sandbox, attr.Sched
		ts.SandboxPct = attr.SandboxPct()
		s.Targets = append(s.Targets, ts)
	}
	s.Cluster = &ClusterSnapshot{
		Self:      "http://a:1",
		Members:   []string{"http://a:1", "http://b:2", "http://c:3"},
		Failovers: 501,
		Peers: []PeerStats{
			{Peer: "http://b:2", Hits: 502, Quarantines: 503, Errors: 504, Pushes: 505,
				QuarantinesByReason: map[string]uint64{"hash": 506, "verify": 507}, StalenessMs: 508},
			{Peer: "http://c:3", Hits: 509, Errors: 510, StalenessMs: -1},
		},
	}
	return s
}

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the golden at line %d:\n got %q\nwant %q", name, i+1, g, w)
		}
	}
}

// The JSON, Prometheus and Text renderings of a fully populated
// snapshot are pinned byte for byte: scrapers, omnictl and the fleet
// merge all parse them.
func TestGoldenSurfaces(t *testing.T) {
	s := fullSnapshot()
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", append(blob, '\n'))
	checkGolden(t, "snapshot.prom", []byte(s.Prom()))
	checkGolden(t, "snapshot.txt", []byte(s.Text()))
}
