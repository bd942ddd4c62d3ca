package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omniware/internal/trace"
)

// Prom renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): the Table metrics in order, counters as
// omni_*_total, gauges bare, reason families with a reason label; stage
// latencies as cumulative histograms in seconds, and per-target
// instruction attribution as labelled counters. The output is what
// GET /v1/metrics serves when the scraper asks for
// "text/plain; version=0.0.4".
func (s Snapshot) Prom() string {
	var b strings.Builder
	for i := range Table {
		d := &Table[i]
		name, typ := "omni_"+d.Name, "gauge"
		if !d.Gauge {
			name, typ = name+"_total", "counter"
		}
		promHeader(&b, name, d.Help, typ)
		if d.Reasons == nil {
			fmt.Fprintf(&b, "%s %d\n", name, d.Value(&s))
			continue
		}
		for _, r := range d.Reasons {
			fmt.Fprintf(&b, "%s{reason=%q} %d\n", name, r, d.ByReason(&s)[r])
		}
	}

	// Per-peer series only when running clustered.
	if c := s.Cluster; c != nil {
		promHeader(&b, "omni_cluster_failovers_total", "Exec requests re-routed after a member failure.", "counter")
		fmt.Fprintf(&b, "omni_cluster_failovers_total %d\n", c.Failovers)
		promHeader(&b, "omni_cluster_peer_hits_total", "Peer-fill admissions by supplying peer.", "counter")
		for _, p := range c.Peers {
			fmt.Fprintf(&b, "omni_cluster_peer_hits_total{peer=%q} %d\n", p.Peer, p.Hits)
		}
		// Quarantines carry the reason label when the split is known
		// (every reason pre-registered at zero); a snapshot without the
		// split falls back to the reason-blind per-peer series.
		promHeader(&b, "omni_cluster_peer_quarantines_total", "Peer candidates quarantined by supplying peer and reason.", "counter")
		for _, p := range c.Peers {
			if len(p.QuarantinesByReason) == 0 {
				fmt.Fprintf(&b, "omni_cluster_peer_quarantines_total{peer=%q} %d\n", p.Peer, p.Quarantines)
				continue
			}
			for _, reason := range catOrder(p.QuarantinesByReason) {
				fmt.Fprintf(&b, "omni_cluster_peer_quarantines_total{peer=%q,reason=%q} %d\n",
					p.Peer, reason, p.QuarantinesByReason[reason])
			}
		}
		promHeader(&b, "omni_cluster_peer_errors_total", "Transport or protocol failures probing a peer.", "counter")
		for _, p := range c.Peers {
			fmt.Fprintf(&b, "omni_cluster_peer_errors_total{peer=%q} %d\n", p.Peer, p.Errors)
		}
		promHeader(&b, "omni_cluster_peer_pushes_total", "Hot-entry replications sent to a peer.", "counter")
		for _, p := range c.Peers {
			fmt.Fprintf(&b, "omni_cluster_peer_pushes_total{peer=%q} %d\n", p.Peer, p.Pushes)
		}
		promHeader(&b, "omni_cluster_peer_staleness_ms", "Milliseconds since a peer last answered; -1 means never.", "gauge")
		for _, p := range c.Peers {
			fmt.Fprintf(&b, "omni_cluster_peer_staleness_ms{peer=%q} %d\n", p.Peer, p.StalenessMs)
		}
	}

	// Stage latency histograms share one metric family with a stage
	// label, cumulative buckets in seconds.
	promHeader(&b, "omni_stage_latency_seconds", "Pipeline stage latency.", "histogram")
	for _, name := range StageOrder(s.Stages) {
		writePromHist(&b, "omni_stage_latency_seconds", `stage="`+name+`"`, s.Stages[name].Hist)
	}

	// Per-target dynamic instruction attribution: the live overhead
	// tables, one counter per (target, category) plus the derived
	// sandbox-overhead percentage.
	promHeader(&b, "omni_target_jobs_total", "Jobs run per target machine.", "counter")
	for _, ts := range s.Targets {
		fmt.Fprintf(&b, "omni_target_jobs_total{target=%q} %d\n", ts.Target, ts.Jobs)
	}
	promHeader(&b, "omni_target_insts_total", "Dynamic instructions per target by expansion category.", "counter")
	for _, ts := range s.Targets {
		for _, cat := range catOrder(ts.Counts) {
			fmt.Fprintf(&b, "omni_target_insts_total{target=%q,cat=%q} %d\n", ts.Target, cat, ts.Counts[cat])
		}
	}
	promHeader(&b, "omni_target_sandbox_pct", "Percentage of dynamic instructions spent on SFI checks.", "gauge")
	for _, ts := range s.Targets {
		fmt.Fprintf(&b, "omni_target_sandbox_pct{target=%q} %s\n", ts.Target, promFloat(ts.SandboxPct))
	}
	return b.String()
}

// promHeader writes the HELP and TYPE lines of one metric family.
func promHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writePromHist emits one labelled series of a histogram family:
// cumulative le buckets, +Inf, _sum (seconds) and _count.
func writePromHist(b *strings.Builder, family, labels string, h trace.HistSnapshot) {
	cum := uint64(0)
	for i := 0; i < trace.NumBuckets && i < len(h.Counts); i++ {
		cum += h.Counts[i]
		le := promFloat(trace.BucketBound(i).Seconds())
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", family, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", family, labels, h.Count)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", family, labels, promFloat(float64(h.SumNs)/1e9))
	fmt.Fprintf(b, "%s_count{%s} %d\n", family, labels, h.Count)
}

// promFloat formats a float the way Prometheus clients do: shortest
// representation that round-trips.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// catOrder returns the category names sorted for stable output.
func catOrder(counts map[string]uint64) []string {
	out := make([]string, 0, len(counts))
	for k := range counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
