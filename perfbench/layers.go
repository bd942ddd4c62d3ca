package main

import (
	"time"

	"omniware/internal/serve/metrics"
)

// layers fills the per-layer metrics of a traced run from the span
// aggregates, the replay and the server's counters over the timed
// loop. spans is how many spans the timed loop recorded.
func (r *record) layers(st *state, rs *runStats, rep *replayResult, agg map[string]*stat, spans int, before, after *metrics.Snapshot) {
	m := r.Metrics
	med := func(name string, unit float64, self bool) float64 {
		s := agg[name]
		if s == nil {
			return 0
		}
		xs := s.dur
		if self {
			xs = s.self
		}
		return medianOf(xs) / unit
	}
	// rate is work units per second over every span of a name.
	rate := func(name string) float64 {
		if s := agg[name]; s != nil && s.total > 0 {
			return float64(s.work) / (s.total / 1e9)
		}
		return 0
	}
	const us, msec = 1e3, 1e6

	m["cc.compile_ms"] = med("cc.build", msec, false)
	m["interp.msteps_per_s"] = rate("interp.run") / 1e6
	m["netserve.exec_overhead_us"] = med("client.exec", us, true)
	m["netserve.upload_ms"] = med("client.upload", msec, false)
	if d := rate("wire.decode"); d > 0 {
		m["wire.decode_us_per_kb"] = 1e6 / (d / 1024)
	}
	m["audit.analyze_ms"] = med("audit.analyze", msec, false)
	m["translate.translate_ms"] = med("translate.translate", msec, false)
	m["translate.expansion"] = float64(rep.targetInsts) / float64(rep.omniInsts)
	m["sfi.check_us"] = med("sfi.check", us, false)
	m["absint.check_ms"] = med("absint.check", msec, false)
	m["mcache.hit_us"] = med("mcache.hit", us, false)
	m["mcache.miss_ms"] = med("mcache.miss", msec, false)
	hits := after.CacheHits - before.CacheHits
	lookups := hits + after.CacheCoalesced - before.CacheCoalesced + after.CacheMisses - before.CacheMisses
	if lookups > 0 {
		m["mcache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	m["mcache.disagreements"] = float64(after.CacheDisagreements)
	m["mcache.rejected"] = float64(after.CacheRejected)
	m["core.acquire_us"] = med("core.acquire", us, false)
	for _, mach := range machines {
		m["target.minst_per_s."+mach.Name] = rate("target.run."+mach.Name) / 1e6
	}

	// Shares of the workers' capacity over the timed loop: the time
	// they were busy with jobs (the run intervals the server returned)
	// and the part of it spent in Host.RunProgram (the server's
	// per-target execute-time counters).
	capacity := ms(rs.wall) * float64(workers())
	var busy, sim float64
	var qwLight, qwHeavy []float64
	for _, o := range rs.outcomes {
		busy += float64(o.run)
		if o.light {
			qwLight = append(qwLight, float64(o.queueWait))
		} else {
			qwHeavy = append(qwHeavy, float64(o.queueWait))
		}
	}
	for _, t := range after.Targets {
		sim += float64(t.Run.Hist.SumNs) / 1e6
	}
	for _, t := range before.Targets {
		sim -= float64(t.Run.Hist.SumNs) / 1e6
	}
	m["target.run_share"] = sim / capacity
	m["serve.busy_share"] = busy / capacity
	light, heavy := summarize(qwLight), summarize(qwHeavy)
	m["serve.queue_wait_ms.light.p50"], m["serve.queue_wait_ms.light.tail"] = light.P50, light.Tail
	m["serve.queue_wait_ms.heavy.p50"], m["serve.queue_wait_ms.heavy.tail"] = heavy.P50, heavy.Tail
	m["serve.sheds"] = float64(r.Sheds)

	// The traced loop's own end-to-end figures: set against the
	// untraced run of the same seed they give the tracing overhead,
	// which trace.overhead_pct also estimates directly as the cost of
	// recording the loop's spans over the clients' busy time.
	m["trace.jobs_per_s"] = r.Metrics["jobs_per_s"]
	m["trace.latency_p50_ms"] = r.Metrics["latency_p50_ms"]
	clients := float64(workers())
	if st.wl.rate > 0 {
		clients = 1
	}
	m["trace.overhead_pct"] = 100 * float64(spans) * spanCost().Seconds() / (rs.wall.Seconds() * clients)
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 20_000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", -1, int64(i)), 0)
	}
	return time.Since(t0) / n
}
