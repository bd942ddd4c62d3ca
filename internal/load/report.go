// Package load is the load-generation and benchmark subsystem: it
// drives an omniserved instance over real HTTP with a deterministic,
// seeded schedule of execution requests — open-loop (fixed arrival
// rate) or closed-loop (N concurrent clients) — across a configurable
// mix of workloads and target machines, and distills the run into a
// schema-versioned Report (the BENCH_<n>.json artifacts the repo
// checks in to anchor performance claims).
//
// The report combines three vantage points: the client side (what the
// generator observed end to end, including sheds and retries), the
// server side (before/after deltas of the /v1/metrics counters and
// bucket-wise stage-histogram subtraction, so quantiles describe this
// run rather than the server's lifetime), and the allocator (paired
// testing.Benchmark runs of the host execute path, where the
// zero-allocation claim is enforced).
package load

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

// Schema identifies the report layout. Bump it when a field changes
// meaning; consumers (CI validation, the omnictl formatter) refuse
// versions they do not know. v3 added the admission-audit section
// (gate mode in the config, pass/warn/reject interval counters in
// the server delta).
const Schema = "omniload/v3"

// SchemaV2 and SchemaV1 are the previous layouts — strict subsets of
// v3 — still accepted by Validate so checked-in BENCH artifacts from
// earlier runs keep validating. v2 added the cluster peer-health
// section (per-peer quarantine attribution with reasons, fleet
// failover counts) to ServerDelta.
const (
	SchemaV2 = "omniload/v2"
	SchemaV1 = "omniload/v1"
)

// Report is one load run, serialized as BENCH_<n>.json.
type Report struct {
	Schema string        `json:"schema"`
	Config ConfigSummary `json:"config"`
	Load   LoadStats     `json:"load"`
	Server ServerDelta   `json:"server"`
	Allocs []AllocStat   `json:"allocs,omitempty"`
}

// ConfigSummary pins everything needed to reproduce the run.
type ConfigSummary struct {
	Mode       string             `json:"mode"` // open | closed
	Rate       float64            `json:"rate,omitempty"`
	Clients    int                `json:"clients,omitempty"`
	Nodes      int                `json:"nodes,omitempty"` // cluster members driven (0 = single node)
	Jobs       int                `json:"jobs"`
	Seed       int64              `json:"seed"`
	Scale      int                `json:"scale"`
	SFI        bool               `json:"sfi"`
	Prewarm    bool               `json:"prewarm"`
	DeadlineMs int                `json:"deadline_ms,omitempty"`
	Audit      string             `json:"audit,omitempty"` // admission-gate mode ("" = off)
	Workloads  map[string]float64 `json:"workloads"`
	Targets    map[string]float64 `json:"targets"`
}

// LatencyStats summarizes one latency distribution in microseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

func latStats(s trace.HistSnapshot) LatencyStats {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return LatencyStats{
		Count:  s.Count,
		P50Us:  us(s.P50()),
		P95Us:  us(s.P95()),
		P99Us:  us(s.P99()),
		MeanUs: us(s.Mean()),
	}
}

// LoadStats is the client-side view: what the generator observed over
// the wire, including backpressure the server-side counters cannot
// see (sheds never become jobs).
type LoadStats struct {
	DurationSec float64 `json:"duration_sec"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	Jobs    uint64 `json:"jobs"`   // scheduled requests completed (one way or another)
	OK      uint64 `json:"ok"`     // module exited cleanly
	Faults  uint64 `json:"faults"` // contained module faults
	Errors  uint64 `json:"errors"` // job-level errors (budget, deadline, refusals that out-ran the retry budget)
	Sheds   uint64 `json:"sheds"`  // 429/503 responses absorbed by retries
	Warm    uint64 `json:"warm"`   // translation served from cache
	Cold    uint64 `json:"cold"`   // translation paid on the spot
	Checked uint64 `json:"checked,omitempty"`
	Parity  uint64 `json:"parity_failures"` // interpreter disagreements (must be 0)

	// Failovers counts cluster-mode node abandonments (dead or
	// persistently shedding members skipped by the routing client).
	Failovers uint64 `json:"failovers,omitempty"`

	Latency     LatencyStats `json:"latency"`      // end-to-end client wall clock
	WarmLatency LatencyStats `json:"warm_latency"` // latency of cache-hit jobs
	ColdLatency LatencyStats `json:"cold_latency"` // latency of cache-miss jobs
}

// StageDelta is the interval view of one server pipeline stage:
// quantiles over only the observations between the two snapshots.
type StageDelta struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

// ServerDelta is the server-side view of the run: /v1/metrics sampled
// before and after, counters subtracted, stage histograms subtracted
// bucket-wise so the quantiles are the run's own. It carries every
// metrics.Table metric under its JSON name; Delta fills them by name.
type ServerDelta struct {
	JobsSubmitted   uint64 `json:"jobs_submitted"`
	JobsRun         uint64 `json:"jobs_run"`
	JobsFailed      uint64 `json:"jobs_failed"`
	FaultsContained uint64 `json:"faults_contained"`
	Timeouts        uint64 `json:"timeouts"`
	Translations    uint64 `json:"translations"`
	SimInsts        uint64 `json:"sim_insts"`
	SimCycles       uint64 `json:"sim_cycles"`
	QueueDepth      uint64 `json:"queue_depth,omitempty"` // gauge: the level after the run

	CacheHits      uint64  `json:"cache_hits"`
	CacheCoalesced uint64  `json:"cache_coalesced"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheDiskHits  uint64  `json:"cache_disk_hits"`
	HitRate        float64 `json:"hit_rate"`

	CacheEvictions  uint64 `json:"cache_evictions,omitempty"`
	CacheEntries    uint64 `json:"cache_entries,omitempty"` // gauge: the level after the run
	CacheBytes      uint64 `json:"cache_bytes,omitempty"`   // gauge: the level after the run
	CacheDiskWrites uint64 `json:"cache_disk_writes,omitempty"`

	// Correctness counters: each nonzero value is a verifier or
	// integrity failure, and Validate refuses the report.
	CacheRejected        uint64 `json:"cache_rejected,omitempty"`
	CacheDisagreements   uint64 `json:"cache_disagreements,omitempty"`
	CacheDiskQuarantines uint64 `json:"cache_disk_quarantines,omitempty"`
	CacheSpotCheckFails  uint64 `json:"cache_spot_check_fails,omitempty"`

	// Cluster-mode extras: translations served by peer fill and peer
	// candidates refused by the local verifier, summed over members.
	CachePeerHits        uint64 `json:"cache_peer_hits,omitempty"`
	CachePeerQuarantines uint64 `json:"cache_peer_quarantines,omitempty"`
	CacheSpotChecks      uint64 `json:"cache_spot_checks,omitempty"`

	// ClusterFailovers counts server-side peer abandonments during the
	// run (peer fetches that faulted and fell through to the next
	// owner), summed over members. Distinct from Load.Failovers, which
	// is the routing client's own abandonment count.
	ClusterFailovers uint64 `json:"cluster_failovers,omitempty"`
	// PeerHealth is the per-peer interval attribution, merged over
	// members: how each peer behaved as a translation source during
	// the run, with quarantines split by refusal reason.
	PeerHealth []PeerDelta `json:"peer_health,omitempty"`

	// Admission-audit interval counters (v3), summed over members:
	// how the static-analysis gate ruled on the run's uploads, with
	// warn/reject splits by reason (nonzero reasons only), and the
	// audit cache's work. All zero when the gate is off.
	AuditPass             uint64            `json:"audit_pass,omitempty"`
	AuditWarns            map[string]uint64 `json:"audit_warns,omitempty"`
	AuditRejects          map[string]uint64 `json:"audit_rejects,omitempty"`
	CacheAudits           uint64            `json:"cache_audits,omitempty"`
	CacheAuditHits        uint64            `json:"cache_audit_hits,omitempty"`
	CacheAuditDiskWrites  uint64            `json:"cache_audit_disk_writes,omitempty"`
	CacheAuditQuarantines uint64            `json:"cache_audit_quarantines,omitempty"`

	AppInsts     uint64  `json:"app_insts"`
	SandboxInsts uint64  `json:"sandbox_insts"`
	SchedInsts   uint64  `json:"sched_insts"`
	SandboxPct   float64 `json:"sandbox_pct"`

	Stages map[string]StageDelta `json:"stages"`
}

// PeerDelta is one peer's interval attribution in a cluster run.
type PeerDelta struct {
	Peer                string            `json:"peer"`
	Hits                uint64            `json:"hits"`
	Quarantines         uint64            `json:"quarantines"`
	QuarantinesByReason map[string]uint64 `json:"quarantines_by_reason,omitempty"`
	Errors              uint64            `json:"errors"`
	Pushes              uint64            `json:"pushes"`
}

// AllocStat is one testing.Benchmark measurement of a host-lifecycle
// execute path. The pooled variant's AllocsPerOp is the number the
// zero-allocation acceptance gate reads.
type AllocStat struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	NsPerOp     int64  `json:"ns_per_op"`
}

// deltaField is, for each metrics.Table entry, the index of the
// ServerDelta field with the same JSON name.
var deltaField = func() (idx [metrics.NumIDs]int) {
	t := reflect.TypeOf(ServerDelta{})
	byName := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		byName[name] = i
	}
	for id := range metrics.Table {
		i, ok := byName[metrics.Table[id].Name]
		if !ok {
			panic("load: ServerDelta has no field for metric " + metrics.Table[id].Name)
		}
		idx[id] = i
	}
	return idx
}()

// Delta computes the server-side interval between two metric
// snapshots taken around a load run: every metrics.Table metric from
// Snapshot.Sub (counters subtracted, gauges at their after level,
// reason families keeping only nonzero reasons), histogram quantiles
// from bucket-wise subtraction, and the per-target attribution and
// cluster peer sections subtracted here.
func Delta(before, after metrics.Snapshot) ServerDelta {
	sub := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return 0
	}
	iv := after.Sub(before)
	d := ServerDelta{HitRate: iv.HitRate(), Stages: map[string]StageDelta{}}
	dv := reflect.ValueOf(&d).Elem()
	for id := range metrics.Table {
		m := &metrics.Table[id]
		f := dv.Field(deltaField[id])
		if m.Reasons == nil {
			f.SetUint(m.Value(&iv))
			continue
		}
		nonzero := map[string]uint64{}
		for reason, v := range m.ByReason(&iv) {
			if v > 0 {
				nonzero[reason] = v
			}
		}
		if len(nonzero) > 0 {
			f.Set(reflect.ValueOf(nonzero))
		}
	}
	prevTargets := map[string]metrics.TargetSnapshot{}
	for _, ts := range before.Targets {
		prevTargets[ts.Target] = ts
	}
	for _, ts := range after.Targets {
		p := prevTargets[ts.Target]
		d.AppInsts += sub(ts.AppInsts, p.AppInsts)
		d.SandboxInsts += sub(ts.Sandbox, p.Sandbox)
		d.SchedInsts += sub(ts.Sched, p.Sched)
	}
	if total := d.AppInsts + d.SandboxInsts + d.SchedInsts; total > 0 {
		d.SandboxPct = 100 * float64(d.SandboxInsts) / float64(total)
	}
	for name, st := range iv.Stages {
		if st.Hist.Count == 0 {
			continue
		}
		ls := latStats(st.Hist)
		d.Stages[name] = StageDelta{
			Count: ls.Count, P50Us: ls.P50Us, P95Us: ls.P95Us, P99Us: ls.P99Us, MeanUs: ls.MeanUs,
		}
	}
	if after.Cluster != nil {
		var beforeC metrics.ClusterSnapshot
		if before.Cluster != nil {
			beforeC = *before.Cluster
		}
		d.ClusterFailovers = sub(after.Cluster.Failovers, beforeC.Failovers)
		prevPeers := map[string]metrics.PeerStats{}
		for _, p := range beforeC.Peers {
			prevPeers[p.Peer] = p
		}
		for _, p := range after.Cluster.Peers {
			q := prevPeers[p.Peer]
			pd := PeerDelta{
				Peer:        p.Peer,
				Hits:        sub(p.Hits, q.Hits),
				Quarantines: sub(p.Quarantines, q.Quarantines),
				Errors:      sub(p.Errors, q.Errors),
				Pushes:      sub(p.Pushes, q.Pushes),
			}
			for reason, v := range p.QuarantinesByReason {
				if dv := sub(v, q.QuarantinesByReason[reason]); dv > 0 {
					if pd.QuarantinesByReason == nil {
						pd.QuarantinesByReason = map[string]uint64{}
					}
					pd.QuarantinesByReason[reason] = dv
				}
			}
			d.PeerHealth = append(d.PeerHealth, pd)
		}
		sort.Slice(d.PeerHealth, func(i, j int) bool { return d.PeerHealth[i].Peer < d.PeerHealth[j].Peer })
	}
	return d
}

// Validate checks a report's internal consistency — the CI gate runs
// it against freshly emitted and checked-in BENCH files. It verifies
// the schema version, the client-side accounting identity, quantile
// monotonicity, and cross-view agreement loose enough to tolerate
// concurrent background traffic but tight enough to catch a report
// assembled from mismatched snapshots.
func Validate(r *Report) error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if r.Schema != Schema && r.Schema != SchemaV2 && r.Schema != SchemaV1 {
		bad("schema %q, want %q (or legacy %q, %q)", r.Schema, Schema, SchemaV2, SchemaV1)
	}
	if r.Load.Jobs == 0 {
		bad("no jobs recorded")
	}
	if got := r.Load.OK + r.Load.Faults + r.Load.Errors; got != r.Load.Jobs {
		bad("ok+faults+errors = %d, want jobs = %d", got, r.Load.Jobs)
	}
	if got := r.Load.Warm + r.Load.Cold; got > r.Load.Jobs {
		bad("warm+cold = %d exceeds jobs = %d", got, r.Load.Jobs)
	}
	if r.Load.Parity > r.Load.Checked {
		bad("parity failures %d exceed checked %d", r.Load.Parity, r.Load.Checked)
	}
	if r.Load.DurationSec <= 0 {
		bad("non-positive duration %v", r.Load.DurationSec)
	}
	if r.Load.JobsPerSec <= 0 && r.Load.Jobs > 0 {
		bad("non-positive jobs/sec with %d jobs", r.Load.Jobs)
	}
	mono := func(name string, p50, p95, p99 float64) {
		if p50 < 0 || p50 > p95 || p95 > p99 {
			bad("%s quantiles not monotone: p50=%.1f p95=%.1f p99=%.1f", name, p50, p95, p99)
		}
	}
	mono("latency", r.Load.Latency.P50Us, r.Load.Latency.P95Us, r.Load.Latency.P99Us)
	for name, st := range r.Server.Stages {
		mono("stage "+name, st.P50Us, st.P95Us, st.P99Us)
	}
	if r.Server.SandboxPct < 0 || r.Server.SandboxPct > 100 {
		bad("sandbox_pct %.2f outside [0,100]", r.Server.SandboxPct)
	}
	if r.Config.Jobs > 0 && uint64(r.Config.Jobs) != r.Load.Jobs {
		bad("config jobs %d != load jobs %d", r.Config.Jobs, r.Load.Jobs)
	}
	for _, a := range r.Allocs {
		if a.AllocsPerOp < 0 || a.Name == "" {
			bad("malformed alloc stat %+v", a)
		}
	}
	sv := reflect.ValueOf(r.Server)
	for _, id := range []metrics.ID{metrics.CacheRejected, metrics.CacheDisagreements, metrics.CacheDiskQuarantines, metrics.CacheSpotCheckFails} {
		if n := sv.Field(deltaField[id]).Uint(); n != 0 {
			bad("correctness counter %s = %d, want 0", metrics.Table[id].Name, n)
		}
	}
	seenPeer := map[string]bool{}
	for _, p := range r.Server.PeerHealth {
		if p.Peer == "" {
			bad("peer_health entry with empty peer address")
		}
		if seenPeer[p.Peer] {
			bad("peer_health lists %s twice", p.Peer)
		}
		seenPeer[p.Peer] = true
		var byReason uint64
		for _, v := range p.QuarantinesByReason {
			byReason += v
		}
		if byReason > p.Quarantines {
			bad("peer %s reason-split quarantines %d exceed total %d", p.Peer, byReason, p.Quarantines)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("load: invalid report: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Format renders a report for humans: the summary line omnictl and
// omniload both print.
func Format(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "omniload %s  mode=%s jobs=%d seed=%d\n",
		r.Schema, r.Config.Mode, r.Load.Jobs, r.Config.Seed)
	fmt.Fprintf(&b, "  throughput   %.1f jobs/sec over %.2fs\n", r.Load.JobsPerSec, r.Load.DurationSec)
	fmt.Fprintf(&b, "  outcomes     ok=%d faults=%d errors=%d sheds=%d parity_failures=%d\n",
		r.Load.OK, r.Load.Faults, r.Load.Errors, r.Load.Sheds, r.Load.Parity)
	fmt.Fprintf(&b, "  cache        warm=%d cold=%d hit_rate=%.2f\n",
		r.Load.Warm, r.Load.Cold, r.Server.HitRate)
	if r.Config.Nodes > 0 {
		fmt.Fprintf(&b, "  cluster      nodes=%d peer_hits=%d peer_quarantines=%d failovers=%d cluster_failovers=%d\n",
			r.Config.Nodes, r.Server.CachePeerHits, r.Server.CachePeerQuarantines,
			r.Load.Failovers, r.Server.ClusterFailovers)
		for _, p := range r.Server.PeerHealth {
			line := fmt.Sprintf("  peer         %s hits=%d quarantines=%d errors=%d pushes=%d",
				p.Peer, p.Hits, p.Quarantines, p.Errors, p.Pushes)
			for _, reason := range sortedKeys(p.QuarantinesByReason) {
				line += fmt.Sprintf(" %s=%d", reason, p.QuarantinesByReason[reason])
			}
			b.WriteString(line + "\n")
		}
	}
	fmt.Fprintf(&b, "  latency      p50=%.0fus p95=%.0fus p99=%.0fus\n",
		r.Load.Latency.P50Us, r.Load.Latency.P95Us, r.Load.Latency.P99Us)
	if r.Load.Warm > 0 {
		fmt.Fprintf(&b, "  warm latency p50=%.0fus p95=%.0fus p99=%.0fus\n",
			r.Load.WarmLatency.P50Us, r.Load.WarmLatency.P95Us, r.Load.WarmLatency.P99Us)
	}
	fmt.Fprintf(&b, "  sandbox      %.2f%% of %d insts\n", r.Server.SandboxPct,
		r.Server.AppInsts+r.Server.SandboxInsts+r.Server.SchedInsts)
	if r.Config.Audit != "" {
		line := fmt.Sprintf("  audit        mode=%s pass=%d", r.Config.Audit, r.Server.AuditPass)
		for _, reason := range sortedKeys(r.Server.AuditWarns) {
			line += fmt.Sprintf(" warn_%s=%d", reason, r.Server.AuditWarns[reason])
		}
		for _, reason := range sortedKeys(r.Server.AuditRejects) {
			line += fmt.Sprintf(" reject_%s=%d", reason, r.Server.AuditRejects[reason])
		}
		b.WriteString(line + "\n")
	}
	b.WriteString(FormatServer(r.Server))
	for _, a := range r.Allocs {
		fmt.Fprintf(&b, "  allocs       %-22s %d allocs/op  %d B/op  %d ns/op\n",
			a.Name, a.AllocsPerOp, a.BytesPerOp, a.NsPerOp)
	}
	return b.String()
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatServer renders just the server-side interval — shared by the
// full report formatter and omnictl bench (which has only the delta).
func FormatServer(d ServerDelta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  server       run=%d failed=%d contained=%d timeouts=%d translations=%d\n",
		d.JobsRun, d.JobsFailed, d.FaultsContained, d.Timeouts, d.Translations)
	for _, n := range metrics.StageOrder(d.Stages) {
		st := d.Stages[n]
		fmt.Fprintf(&b, "  stage %-12s count=%d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			n, st.Count, st.P50Us, st.P95Us, st.P99Us)
	}
	return b.String()
}
