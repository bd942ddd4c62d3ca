package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"omniware/internal/serve/metrics"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, on every workload.
// On mixed-open the latency metrics are those of the light class
// (the record also carries the heavy class).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"sim_cycles", "cycles", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, on every workload. A
// layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"cc.compile_ms", "ms", "lower"},
	{"interp.msteps_per_s", "Msteps/s", "higher"},
	{"netserve.exec_overhead_us", "us", "lower"},
	{"netserve.upload_ms", "ms", "lower"},
	{"wire.decode_us_per_kb", "us/KB", "lower"},
	{"audit.analyze_ms", "ms", "lower"},
	{"translate.translate_ms", "ms", "lower"},
	{"translate.expansion", "inst/inst", "lower"},
	{"sfi.check_us", "us", "lower"},
	{"absint.check_ms", "ms", "lower"},
	{"mcache.hit_us", "us", "lower"},
	{"mcache.miss_ms", "ms", "lower"},
	{"mcache.hit_ratio", "ratio", "higher"},
	{"mcache.disagreements", "count", "lower"},
	{"mcache.rejected", "count", "lower"},
	{"core.acquire_us", "us", "lower"},
	{"target.minst_per_s.mips", "Minst/s", "higher"},
	{"target.minst_per_s.sparc", "Minst/s", "higher"},
	{"target.minst_per_s.ppc", "Minst/s", "higher"},
	{"target.minst_per_s.x86", "Minst/s", "higher"},
	{"target.run_share", "ratio", "lower"},
	{"serve.queue_wait_ms.light.p50", "ms", "lower"},
	{"serve.queue_wait_ms.light.tail", "ms", "lower"},
	{"serve.queue_wait_ms.heavy.p50", "ms", "lower"},
	{"serve.queue_wait_ms.heavy.tail", "ms", "lower"},
	{"serve.busy_share", "ratio", "lower"},
	{"serve.sheds", "count", "lower"},
	{"trace.jobs_per_s", "jobs/s", "higher"},
	{"trace.latency_p50_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// envRecord pins what a result depends on besides the code.
type envRecord struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	GitRev      string  `json:"git_rev"`
	Workers     int     `json:"workers"`
	QueueCap    int     `json:"queue_cap"`
	CacheMiB    int     `json:"cache_mib"`
	Verify      string  `json:"verify"`
	Audit       string  `json:"audit"`
	ParityCheck bool    `json:"parity_check"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients,omitempty"`
	Rate        float64 `json:"rate_jobs_per_s,omitempty"`
	LateBoundMs float64 `json:"late_bound_ms,omitempty"`
}

// counterSet is the server's correctness counters; each must read 0.
type counterSet struct {
	Disagreements   uint64 `json:"cache_disagreements"`
	Rejected        uint64 `json:"cache_rejected"`
	DiskQuarantines uint64 `json:"cache_disk_quarantines"`
	SpotCheckFails  uint64 `json:"cache_spot_check_fails"`
}

func (c counterSet) clean() bool { return c == counterSet{} }

// record is a run's full report; result() extracts the final line.
type record struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Env        envRecord          `json:"env"`
	SetupS     []float64          `json:"setup_s_samples"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedPct  float64            `json:"failed_pct"`
	Errors     int                `json:"errors"`
	Sheds      int                `json:"sheds"`
	Wrong      int64              `json:"wrong"`
	Counters   counterSet         `json:"counters"`
	WallS      float64            `json:"wall_s"`
	Latency    dist               `json:"latency_ms"`        // closed: every job; open: light class
	Light      dist               `json:"light_ms"`          // trivial-module jobs
	Heavy      dist               `json:"heavy_ms"`          // every other job
	Late       dist               `json:"gen_late_ms"`       // open loop only
	Invalid    string             `json:"invalid,omitempty"` // why the run does not count
	Mismatches []string           `json:"mismatches,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	Correct    bool               `json:"correct"`
	Metrics    map[string]float64 `json:"metrics"`
}

func newRecord(wl *workload, seed int64, dur time.Duration, traced bool) *record {
	env := envRecord{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GitRev:      gitRev(),
		Workers:     workers(),
		QueueCap:    queueCap,
		CacheMiB:    cacheMiB,
		Verify:      verifyMode.String(),
		Audit:       auditMode,
		ParityCheck: parityCheck,
		Seed:        seed,
		Seconds:     dur.Seconds(),
	}
	if wl.rate > 0 {
		env.Rate, env.LateBoundMs = wl.rate, lateBoundMs
	} else {
		env.Clients = workers()
	}
	return &record{Workload: wl.name, Traced: traced, Env: env, Metrics: map[string]float64{}}
}

// summarize fills the correctness fields and the end-to-end metrics.
func (r *record) summarize(st *state, chk *checker, rs *runStats, after *metrics.Snapshot) {
	var lat, light, heavy []float64
	ok := 0
	for _, o := range rs.outcomes {
		switch {
		case o.ok:
			ok++
		case o.err:
			r.Errors++
		case o.shed:
			r.Sheds++
		}
		if o.light {
			light = append(light, float64(o.lat))
		} else {
			heavy = append(heavy, float64(o.lat))
		}
		if st.wl.rate == 0 {
			lat = append(lat, float64(o.lat))
		}
	}
	if st.wl.rate > 0 {
		lat = append([]float64(nil), light...)
	}
	r.Attempted = len(rs.outcomes)
	r.Failed = r.Attempted - ok
	if r.Attempted > 0 {
		r.FailedPct = 100 * float64(r.Failed) / float64(r.Attempted)
	}
	r.Wrong = chk.wrong.Load()
	r.Mismatches = chk.mismatches()
	r.Counters = counterSet{
		Disagreements:   after.CacheDisagreements,
		Rejected:        after.CacheRejected,
		DiskQuarantines: after.CacheDiskQuarantines,
		SpotCheckFails:  after.CacheSpotCheckFails,
	}
	r.WallS = rs.wall.Seconds()
	r.Latency, r.Light, r.Heavy = summarize(lat), summarize(light), summarize(heavy)
	if st.wl.rate > 0 {
		r.Late = summarize(append([]float64(nil), rs.late...))
		if r.Late.N > 0 && maxOf(rs.late) > lateBoundMs {
			r.Invalid = "generator ran late past the bound"
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0 && r.Counters.clean() && r.Invalid == ""

	m := r.Metrics
	m["setup_s"] = medianOf(r.SetupS)
	m["jobs_per_s"] = float64(ok) / r.WallS
	m["latency_p50_ms"] = r.Latency.P50
	m["latency_tail_ms"] = r.Latency.Tail
	m["sim_cycles"] = float64(chk.simCycles())
	m["peak_rss_mb"] = peakRSSMiB()
}

// result is the final output line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *record) result() map[string]any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	ms := map[string]any{}
	for _, d := range defs {
		ms[d.name] = map[string]any{"value": r.Metrics[d.name], "unit": d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev is the revision the binary was built from, when the build
// saw a git checkout.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
