package metrics

import "sync/atomic"

// ID names one metric: an index into Table and into a Counters set.
type ID int

// The metrics, in the order Prom and Text render them.
const (
	JobsSubmitted ID = iota
	JobsRun
	JobsFailed
	FaultsContained
	Timeouts
	Translations
	SimInsts
	SimCycles
	QueueDepth
	CacheHits
	CacheCoalesced
	CacheMisses
	CacheEvictions
	CacheRejected
	CacheEntries
	CacheBytes
	CacheDiskHits
	CacheDiskWrites
	CacheDiskQuarantines
	CacheDisagreements
	CacheAudits
	CacheAuditHits
	CacheAuditDiskWrites
	CacheAuditQuarantines
	AuditPass
	AuditWarns
	AuditRejects
	CachePeerHits
	CachePeerQuarantines
	CacheSpotChecks
	CacheSpotCheckFails
	NumIDs
)

// Def declares one metric. Its Name is the Snapshot JSON key, the
// Text line name and, as omni_<name>[_total], the Prometheus series;
// every surface, the fleet merge and the interval subtraction walk
// Table, so none can miss a metric.
type Def struct {
	Name string
	Help string
	// Gauge marks a level (Prometheus omni_<name>, and an interval
	// reports the later level); otherwise the metric is a counter that
	// only rises (omni_<name>_total, and an interval subtracts it).
	Gauge bool
	// Peer marks a cluster peer-fill counter: Text shows it only on a
	// clustered node.
	Peer bool
	// Reasons is the closed label set of a reason family (nil for a
	// scalar). Every reason is pre-registered at zero on every surface.
	Reasons []string

	field  func(*Snapshot) *uint64
	family func(*Snapshot) *map[string]uint64
}

// Value returns a scalar metric's value in s.
func (d *Def) Value(s *Snapshot) uint64 { return *d.field(s) }

// ByReason returns a reason family's split in s.
func (d *Def) ByReason(s *Snapshot) map[string]uint64 { return *d.family(s) }

// Table declares every scalar metric and reason family of a Snapshot.
var Table = [NumIDs]Def{
	JobsSubmitted:   {Name: "jobs_submitted", Help: "Jobs accepted into the queue.", field: func(s *Snapshot) *uint64 { return &s.JobsSubmitted }},
	JobsRun:         {Name: "jobs_run", Help: "Jobs that finished cleanly.", field: func(s *Snapshot) *uint64 { return &s.JobsRun }},
	JobsFailed:      {Name: "jobs_failed", Help: "Jobs that failed (fault, budget, timeout, bad input).", field: func(s *Snapshot) *uint64 { return &s.JobsFailed }},
	FaultsContained: {Name: "faults_contained", Help: "Failed jobs whose fault the server absorbed.", field: func(s *Snapshot) *uint64 { return &s.FaultsContained }},
	Timeouts:        {Name: "timeouts", Help: "Jobs killed by the per-job deadline.", field: func(s *Snapshot) *uint64 { return &s.Timeouts }},
	Translations:    {Name: "translations", Help: "Load-time translations performed for jobs.", field: func(s *Snapshot) *uint64 { return &s.Translations }},
	SimInsts:        {Name: "sim_insts", Help: "Native instructions simulated across jobs.", field: func(s *Snapshot) *uint64 { return &s.SimInsts }},
	SimCycles:       {Name: "sim_cycles", Help: "Simulated pipeline cycles across jobs.", field: func(s *Snapshot) *uint64 { return &s.SimCycles }},
	QueueDepth:      {Name: "queue_depth", Help: "Jobs submitted but not yet finished.", Gauge: true, field: func(s *Snapshot) *uint64 { return &s.QueueDepth }},

	CacheHits:            {Name: "cache_hits", Help: "Translation cache memory hits.", field: func(s *Snapshot) *uint64 { return &s.CacheHits }},
	CacheCoalesced:       {Name: "cache_coalesced", Help: "Lookups that waited on an in-flight translation.", field: func(s *Snapshot) *uint64 { return &s.CacheCoalesced }},
	CacheMisses:          {Name: "cache_misses", Help: "Lookups that translated.", field: func(s *Snapshot) *uint64 { return &s.CacheMisses }},
	CacheEvictions:       {Name: "cache_evictions", Help: "LRU evictions.", field: func(s *Snapshot) *uint64 { return &s.CacheEvictions }},
	CacheRejected:        {Name: "cache_rejected", Help: "Programs the SFI verifier refused to admit.", field: func(s *Snapshot) *uint64 { return &s.CacheRejected }},
	CacheEntries:         {Name: "cache_entries", Help: "Live cache entries.", Gauge: true, field: func(s *Snapshot) *uint64 { return &s.CacheEntries }},
	CacheBytes:           {Name: "cache_bytes", Help: "Code bytes held by the cache.", Gauge: true, field: func(s *Snapshot) *uint64 { return &s.CacheBytes }},
	CacheDiskHits:        {Name: "cache_disk_hits", Help: "Disk-tier hits (re-verified on read).", field: func(s *Snapshot) *uint64 { return &s.CacheDiskHits }},
	CacheDiskWrites:      {Name: "cache_disk_writes", Help: "Disk-tier write-throughs.", field: func(s *Snapshot) *uint64 { return &s.CacheDiskWrites }},
	CacheDiskQuarantines: {Name: "cache_disk_quarantines", Help: "Disk entries quarantined after failing re-verification.", field: func(s *Snapshot) *uint64 { return &s.CacheDiskQuarantines }},
	CacheDisagreements:   {Name: "cache_disagreements", Help: "Dual-gate admissions where the two SFI verifiers split the verdict.", field: func(s *Snapshot) *uint64 { return &s.CacheDisagreements }},

	CacheAudits:           {Name: "cache_audits", Help: "Audit pipeline runs (memoization misses).", field: func(s *Snapshot) *uint64 { return &s.CacheAudits }},
	CacheAuditHits:        {Name: "cache_audit_hits", Help: "Audit reports served memoized.", field: func(s *Snapshot) *uint64 { return &s.CacheAuditHits }},
	CacheAuditDiskWrites:  {Name: "cache_audit_disk_writes", Help: "Audit reports written through to the persistent tier.", field: func(s *Snapshot) *uint64 { return &s.CacheAuditDiskWrites }},
	CacheAuditQuarantines: {Name: "cache_audit_quarantines", Help: "Stored audits that disagreed with re-derivation and were set aside.", field: func(s *Snapshot) *uint64 { return &s.CacheAuditQuarantines }},
	AuditPass:             {Name: "audit_pass", Help: "Uploads the audit gate admitted without violation.", field: func(s *Snapshot) *uint64 { return &s.AuditPass }},
	AuditWarns:            {Name: "audit_warns", Help: "Warn-mode audit violations by reason.", Reasons: AuditReasons[:], family: func(s *Snapshot) *map[string]uint64 { return &s.AuditWarns }},
	AuditRejects:          {Name: "audit_rejects", Help: "Enforce-mode audit rejections by reason.", Reasons: AuditReasons[:], family: func(s *Snapshot) *map[string]uint64 { return &s.AuditRejects }},

	CachePeerHits:        {Name: "cache_peer_hits", Help: "Translations admitted from cluster peers (re-verified on arrival).", Peer: true, field: func(s *Snapshot) *uint64 { return &s.CachePeerHits }},
	CachePeerQuarantines: {Name: "cache_peer_quarantines", Help: "Peer candidates refused by the admission gate or spot check.", Peer: true, field: func(s *Snapshot) *uint64 { return &s.CachePeerQuarantines }},
	CacheSpotChecks:      {Name: "cache_spot_checks", Help: "Peer admissions sampled for retranslation equality.", Peer: true, field: func(s *Snapshot) *uint64 { return &s.CacheSpotChecks }},
	CacheSpotCheckFails:  {Name: "cache_spot_check_fails", Help: "Spot checks where the peer program was not the local translation.", Peer: true, field: func(s *Snapshot) *uint64 { return &s.CacheSpotCheckFails }},
}

// stride is the number of live slots each metric owns in a Counters
// set: one per reason of a family, of which a scalar uses the first.
const stride = len(AuditReasons)

// Counters holds the live value of every metric in Table. Each update
// is one lock-free atomic add; the zero value is ready to use. The
// server and the translation cache each own one and count only their
// own metrics into it, so adding the two sets gives the full snapshot.
type Counters struct {
	v [int(NumIDs) * stride]atomic.Uint64
}

// Add adds n to scalar metric id.
func (c *Counters) Add(id ID, n uint64) { c.v[int(id)*stride].Add(n) }

// Dec lowers gauge id by n.
func (c *Counters) Dec(id ID, n uint64) { c.v[int(id)*stride].Add(-n) }

// Load returns scalar metric id's value.
func (c *Counters) Load(id ID) uint64 { return c.v[int(id)*stride].Load() }

// AddReason counts one event of family id under reason; a reason
// outside the family's closed set is dropped rather than growing it.
func (c *Counters) AddReason(id ID, reason string) {
	for i, r := range Table[id].Reasons {
		if r == reason {
			c.v[int(id)*stride+i].Add(1)
			return
		}
	}
}

// AddTo adds every live value into s, creating each family's map with
// its full reason set.
func (c *Counters) AddTo(s *Snapshot) {
	for id := range Table {
		d := &Table[id]
		if d.Reasons == nil {
			*d.field(s) += c.v[id*stride].Load()
			continue
		}
		m := d.family(s)
		if *m == nil {
			*m = make(map[string]uint64, len(d.Reasons))
		}
		for i, r := range d.Reasons {
			(*m)[r] += c.v[id*stride+i].Load()
		}
	}
}
