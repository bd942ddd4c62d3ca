// Package metrics holds the serving layer's counters, gauges, latency
// histograms and per-target instruction-attribution counters. Every
// scalar metric and reason family is declared once in Table
// (registry.go); the JSON snapshot, Prom (prom.go), Text, the fleet
// merge and the interval subtraction all walk it. The hot-path
// updates are lock-free atomics; Snapshot produces a
// consistent-enough copy for reporting.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"omniware/internal/target"
	"omniware/internal/trace"
)

// Stage indexes the pipeline stages that carry latency histograms.
type Stage int

// The stages, in reporting order: wire decode (uploads), static audit
// (admission-time analysis, recorded by the upload path), queue wait
// (admission to dequeue), the translate stage (cache lookup through
// admission), the cluster peer probe within it (when a peer source is
// wired), SFI verification alone, and job run time (dequeue to
// completion, queue excluded).
const (
	StageDecode Stage = iota
	StageAudit
	StageQueueWait
	StageTranslate
	StagePeerFetch
	StageVerify
	StageRun
	NumStages
)

// StageNames names each Stage in snapshots and renderings.
var StageNames = [NumStages]string{"decode", "audit", "queue_wait", "translate", "peer_fetch", "verify", "run"}

// AuditReasons is the closed set of audit-gate failure reasons
// (mirrors audit.GateReasons without the import), the label set of
// the audit_warns and audit_rejects families.
var AuditReasons = [...]string{"stack", "cost", "capability", "recursion"}

// TargetCounters is the per-machine section: job and instruction
// counters by expansion category (the live form of the paper's
// overhead tables) plus a run-latency histogram.
type TargetCounters struct {
	Jobs   atomic.Uint64
	Counts [target.NumCats]atomic.Uint64
	Run    trace.Histogram
}

// AddRun charges one finished run to the target's counters.
func (tc *TargetCounters) AddRun(res target.Result, d time.Duration) {
	tc.Jobs.Add(1)
	for i, n := range res.Counts {
		tc.Counts[i].Add(n)
	}
	tc.Run.Observe(d)
}

// Metrics is the live metric set one Server owns: its Counters (the
// cache counts its own, see internal/mcache), the stage latency
// histograms and the per-target sections. The zero value is ready to
// use.
type Metrics struct {
	Counters
	stages  [NumStages]trace.Histogram
	targets [4]TargetCounters // indexed by target.Arch
}

// Observe records one latency of stage st.
func (m *Metrics) Observe(st Stage, d time.Duration) { m.stages[st].Observe(d) }

// Target returns the per-machine counter section for arch.
func (m *Metrics) Target(a target.Arch) *TargetCounters { return &m.targets[a] }

// StageSnapshot summarizes one stage's latency distribution.
type StageSnapshot struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`

	// Hist carries the raw buckets — the Prometheus rendering walks
	// them, and the JSON snapshot exposes them so interval consumers
	// (omniload's before/after delta) can subtract two snapshots
	// bucket-wise and compute true interval quantiles instead of
	// conflating them with the process-lifetime ones above.
	Hist trace.HistSnapshot `json:"hist"`
}

// stageOf summarizes a histogram, quantiles computed from its buckets.
func stageOf(h trace.HistSnapshot) StageSnapshot {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return StageSnapshot{
		Count: h.Count,
		P50Us: us(h.P50()),
		P95Us: us(h.P95()),
		P99Us: us(h.P99()),
		Hist:  h,
	}
}

// TargetSnapshot is the per-machine overhead-attribution report: the
// live equivalent of one row of the paper's Tables 3–5.
type TargetSnapshot struct {
	Target     string            `json:"target"`
	Jobs       uint64            `json:"jobs"`
	Insts      uint64            `json:"insts"`
	AppInsts   uint64            `json:"app_insts"`
	SandboxPct float64           `json:"sandbox_pct"`
	Sandbox    uint64            `json:"sandbox_insts"`
	Sched      uint64            `json:"sched_insts"`
	Counts     map[string]uint64 `json:"counts"`
	Run        StageSnapshot     `json:"run"`
}

// Snapshot is a point-in-time copy of the metrics. Each scalar and
// reason-family field is declared in Table, which every surface walks.
type Snapshot struct {
	JobsSubmitted   uint64 `json:"jobs_submitted"`
	JobsRun         uint64 `json:"jobs_run"`
	JobsFailed      uint64 `json:"jobs_failed"`
	FaultsContained uint64 `json:"faults_contained"`
	Timeouts        uint64 `json:"timeouts"`
	Translations    uint64 `json:"translations"`
	SimInsts        uint64 `json:"sim_insts"`
	SimCycles       uint64 `json:"sim_cycles"`
	QueueDepth      uint64 `json:"queue_depth"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheCoalesced uint64 `json:"cache_coalesced"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheRejected  uint64 `json:"cache_rejected"`
	CacheEntries   uint64 `json:"cache_entries"`
	CacheBytes     uint64 `json:"cache_bytes"`

	CacheDiskHits        uint64 `json:"cache_disk_hits"`
	CacheDiskWrites      uint64 `json:"cache_disk_writes"`
	CacheDiskQuarantines uint64 `json:"cache_disk_quarantines"`

	// CacheDisagreements counts dual-gate admissions where the two SFI
	// verifiers split the verdict (always also a rejection). Nonzero
	// means a verifier bug; alert on any increase.
	CacheDisagreements uint64 `json:"cache_disagreements"`

	// Cluster peer-fill counters (zero outside cluster mode; the JSON
	// fields are omitted so single-node snapshots are unchanged).
	CachePeerHits        uint64 `json:"cache_peer_hits,omitempty"`
	CachePeerQuarantines uint64 `json:"cache_peer_quarantines,omitempty"`
	CacheSpotChecks      uint64 `json:"cache_spot_checks,omitempty"`
	CacheSpotCheckFails  uint64 `json:"cache_spot_check_fails,omitempty"`

	// Audit pipeline counters (the cache's memoized derivations) and
	// gate outcomes. The warn/reject maps carry every AuditReasons key,
	// pre-registered at zero.
	CacheAudits           uint64 `json:"cache_audits"`
	CacheAuditHits        uint64 `json:"cache_audit_hits"`
	CacheAuditDiskWrites  uint64 `json:"cache_audit_disk_writes"`
	CacheAuditQuarantines uint64 `json:"cache_audit_quarantines"`

	AuditPass    uint64            `json:"audit_pass"`
	AuditWarns   map[string]uint64 `json:"audit_warns"`
	AuditRejects map[string]uint64 `json:"audit_rejects"`

	Stages  map[string]StageSnapshot `json:"stages"`
	Targets []TargetSnapshot         `json:"targets"`

	// Cluster, when the server runs as a cluster member, carries the
	// membership view and per-peer protocol counters.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
}

// PeerStats is one peer's protocol counters as seen from this node.
type PeerStats struct {
	Peer        string `json:"peer"`
	Hits        uint64 `json:"hits"`        // translations admitted from this peer
	Quarantines uint64 `json:"quarantines"` // candidates from this peer the gate refused
	Errors      uint64 `json:"errors"`      // transport/protocol failures probing this peer
	Pushes      uint64 `json:"pushes"`      // hot-entry replications sent to this peer

	// QuarantinesByReason splits Quarantines by the closed reason set
	// (mcache.QuarantineReasons). Every reason is pre-registered at
	// zero so a scraper sees the full label set from the first scrape.
	QuarantinesByReason map[string]uint64 `json:"quarantines_by_reason,omitempty"`

	// StalenessMs is how long ago this peer last answered anything
	// (including a clean miss); -1 means never contacted.
	StalenessMs int64 `json:"staleness_ms"`
}

// ClusterSnapshot is the cluster section of a Snapshot: pure data, so
// the cluster package can fill it without this package importing it.
type ClusterSnapshot struct {
	Self      string      `json:"self"`
	Members   []string    `json:"members"`
	Failovers uint64      `json:"failovers"` // exec requests re-routed after a member failure
	Peers     []PeerStats `json:"peers,omitempty"`
}

// Snapshot copies the live metrics. The translation cache's counters
// are not in m; the server adds them (Counters.AddTo).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	m.AddTo(&s)
	s.Stages = make(map[string]StageSnapshot, NumStages)
	for i, n := range StageNames {
		s.Stages[n] = stageOf(m.stages[i].Snapshot())
	}
	for a := range m.targets {
		tc := &m.targets[a]
		ts := TargetSnapshot{
			Target: target.Arch(a).String(),
			Jobs:   tc.Jobs.Load(),
			Counts: map[string]uint64{},
			Run:    stageOf(tc.Run.Snapshot()),
		}
		var attr target.Attribution
		var counts [target.NumCats]uint64
		for c := range tc.Counts {
			counts[c] = tc.Counts[c].Load()
			ts.Counts[target.ExpCat(c).String()] = counts[c]
		}
		attr = target.Result{Counts: counts}.Attribution()
		ts.Insts = attr.Total()
		ts.AppInsts = attr.App
		ts.Sandbox = attr.Sandbox
		ts.Sched = attr.Sched
		ts.SandboxPct = attr.SandboxPct()
		s.Targets = append(s.Targets, ts)
	}
	return s
}

// MergeSnapshots adds two snapshots metric-wise — the fleet
// aggregation primitive behind /v1/cluster/metrics and omniload's
// multi-node reports. Every Table metric sums, gauges included, and
// reason families sum key-wise; stage and per-target histograms merge
// bucket-wise (HistSnapshot.Add) with quantiles recomputed from the
// merged buckets, never averaged; cluster sections merge per peer
// address. The inputs are not mutated.
func MergeSnapshots(a, b Snapshot) Snapshot {
	out := a
	for i := range Table {
		d := &Table[i]
		if d.Reasons == nil {
			*d.field(&out) += d.Value(&b)
			continue
		}
		*d.family(&out) = combineReasons(d.ByReason(&a), d.ByReason(&b), add)
	}

	out.Stages = map[string]StageSnapshot{}
	for n, st := range a.Stages {
		out.Stages[n] = st
	}
	for n, st := range b.Stages {
		out.Stages[n] = stageOf(out.Stages[n].Hist.Add(st.Hist))
	}

	out.Targets = nil
	byName := map[string]int{}
	for _, set := range [][]TargetSnapshot{a.Targets, b.Targets} {
		for _, ts := range set {
			i, ok := byName[ts.Target]
			if !ok {
				byName[ts.Target] = len(out.Targets)
				cp := ts
				cp.Counts = map[string]uint64{}
				for k, v := range ts.Counts {
					cp.Counts[k] = v
				}
				out.Targets = append(out.Targets, cp)
				continue
			}
			t := &out.Targets[i]
			t.Jobs += ts.Jobs
			t.Insts += ts.Insts
			t.AppInsts += ts.AppInsts
			t.Sandbox += ts.Sandbox
			t.Sched += ts.Sched
			for k, v := range ts.Counts {
				t.Counts[k] += v
			}
			t.Run = stageOf(t.Run.Hist.Add(ts.Run.Hist))
			if t.Insts > 0 {
				t.SandboxPct = 100 * float64(t.Sandbox) / float64(t.Insts)
			}
		}
	}
	sort.Slice(out.Targets, func(i, j int) bool { return out.Targets[i].Target < out.Targets[j].Target })

	out.Cluster = mergeCluster(a.Cluster, b.Cluster)
	return out
}

// Sub returns the interval from prev to s, two snapshots of one
// server: counters and reason families subtract, saturating at zero
// across a restart; gauges keep s's level; stage histograms subtract
// bucket-wise with quantiles recomputed. Targets and the cluster
// section are s's.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	for i := range Table {
		d := &Table[i]
		switch {
		case d.Reasons != nil:
			*d.family(&out) = combineReasons(d.ByReason(&s), d.ByReason(&prev), sub)
		case !d.Gauge:
			*d.field(&out) = sub(d.Value(&s), d.Value(&prev))
		}
	}
	out.Stages = make(map[string]StageSnapshot, len(s.Stages))
	for n, st := range s.Stages {
		out.Stages[n] = stageOf(st.Hist.Sub(prev.Stages[n].Hist))
	}
	return out
}

func add(a, b uint64) uint64 { return a + b }

// sub is a counter's interval, saturating at zero across a restart.
func sub(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return 0
}

// combineReasons applies op key-wise over two reason splits, keeping
// the pre-registered zero keys; nil in, nil out (hand-built snapshots).
func combineReasons(a, b map[string]uint64, op func(x, y uint64) uint64) map[string]uint64 {
	if a == nil && b == nil {
		return nil
	}
	out := map[string]uint64{}
	for k := range a {
		out[k] = op(a[k], b[k])
	}
	for k := range b {
		out[k] = op(a[k], b[k])
	}
	return out
}

// mergeCluster merges two cluster sections per peer address: counters
// sum, reason splits merge key-wise, and staleness keeps the freshest
// (smallest non-negative) contact age. Self keeps the first non-empty
// value (the fan-out origin); members union.
func mergeCluster(a, b *ClusterSnapshot) *ClusterSnapshot {
	if a == nil && b == nil {
		return nil
	}
	out := &ClusterSnapshot{}
	members := map[string]bool{}
	byPeer := map[string]int{}
	for _, cs := range []*ClusterSnapshot{a, b} {
		if cs == nil {
			continue
		}
		if out.Self == "" {
			out.Self = cs.Self
		}
		out.Failovers += cs.Failovers
		for _, m := range cs.Members {
			members[m] = true
		}
		for _, p := range cs.Peers {
			i, ok := byPeer[p.Peer]
			if !ok {
				byPeer[p.Peer] = len(out.Peers)
				cp := p
				cp.QuarantinesByReason = map[string]uint64{}
				for k, v := range p.QuarantinesByReason {
					cp.QuarantinesByReason[k] = v
				}
				out.Peers = append(out.Peers, cp)
				continue
			}
			q := &out.Peers[i]
			q.Hits += p.Hits
			q.Quarantines += p.Quarantines
			q.Errors += p.Errors
			q.Pushes += p.Pushes
			for k, v := range p.QuarantinesByReason {
				q.QuarantinesByReason[k] += v
			}
			if q.StalenessMs < 0 || (p.StalenessMs >= 0 && p.StalenessMs < q.StalenessMs) {
				q.StalenessMs = p.StalenessMs
			}
		}
	}
	for m := range members {
		out.Members = append(out.Members, m)
	}
	sort.Strings(out.Members)
	sort.Slice(out.Peers, func(i, j int) bool { return out.Peers[i].Peer < out.Peers[j].Peer })
	return out
}

// HitRate is the fraction of cache lookups served without a
// translation (memory hits, disk hits, peer fills, and coalesced
// waits), or 0 with no lookups.
func (s Snapshot) HitRate() float64 {
	warm := s.CacheHits + s.CacheCoalesced + s.CacheDiskHits + s.CachePeerHits
	total := warm + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(warm) / float64(total)
}

// Text renders the snapshot as fixed-order "name value" lines: the
// Table metrics first (a family one line per reason, named in the
// singular, e.g. audit_warn_stack; peer-fill counters only when
// clustered), then the hit rate and cluster lines, stage latency
// lines, and one attribution line per active target.
func (s Snapshot) Text() string {
	var b strings.Builder
	w := func(name string, v any) { fmt.Fprintf(&b, "%-18s %v\n", name, v) }
	clustered := s.Cluster != nil
	for i := range Table {
		if d := &Table[i]; d.Peer && d.Value(&s) > 0 {
			clustered = true
		}
	}
	for i := range Table {
		d := &Table[i]
		switch {
		case d.Peer && !clustered:
		case d.Reasons != nil:
			for _, r := range d.Reasons {
				w(strings.TrimSuffix(d.Name, "s")+"_"+r, d.ByReason(&s)[r])
			}
		default:
			w(d.Name, d.Value(&s))
		}
	}
	w("cache_hit_rate", fmt.Sprintf("%.2f", s.HitRate()))
	if s.Cluster != nil {
		w("cluster_self", s.Cluster.Self)
		w("cluster_members", len(s.Cluster.Members))
		w("cluster_failovers", s.Cluster.Failovers)
		for _, p := range s.Cluster.Peers {
			fmt.Fprintf(&b, "cluster_peer %-14s hits=%d quarantines=%d errors=%d pushes=%d staleness_ms=%d\n",
				p.Peer, p.Hits, p.Quarantines, p.Errors, p.Pushes, p.StalenessMs)
		}
	}
	for _, name := range StageOrder(s.Stages) {
		st := s.Stages[name]
		fmt.Fprintf(&b, "stage_%-12s count=%d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			name, st.Count, st.P50Us, st.P95Us, st.P99Us)
	}
	for _, ts := range s.Targets {
		if ts.Jobs == 0 {
			continue
		}
		fmt.Fprintf(&b, "target_%-11s jobs=%d insts=%d app=%d sfi=%d sched=%d sandbox_pct=%.2f\n",
			ts.Target, ts.Jobs, ts.Insts, ts.AppInsts, ts.Sandbox, ts.Sched, ts.SandboxPct)
	}
	return b.String()
}

// StageOrder returns the stage names present in stages (hand-built
// snapshots may carry a subset) in StageNames order, followed by any
// extras sorted by name.
func StageOrder[V any](stages map[string]V) []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range StageNames {
		if _, ok := stages[n]; ok {
			out = append(out, n)
			seen[n] = true
		}
	}
	var extra []string
	for n := range stages {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
