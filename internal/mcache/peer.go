// Peer-fill support: the cluster layer plugs in as a PeerSource, and
// the cache treats whatever it returns exactly like the disk tier —
// candidate bytes that must pass the SFI admission gate before they
// become visible. The cache never trusts a peer: a candidate that the
// verifier refuses is counted, reported back for per-peer attribution,
// and the lookup falls through to the next candidate (or to local
// translation). The functions in this file are also what a node uses
// to *serve* its peers (Peek) and to accept replication pushes
// (AdmitKeyed) — both keyed by the same explicit, versioned cache key
// the persistent tier uses, so one translation has one name across
// memory, disk, and the wire.

package mcache

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// PeerCandidate is one translation offered by a peer: structurally
// decoded (the wire layer accepted its framing) but UNVERIFIED — the
// cache runs the SFI admission gate on it before anything else.
type PeerCandidate struct {
	Prog *target.Program
	Peer string // peer identity, for attribution
	// Remote, when the peer returned one, is the serving node's own
	// span subtree for this probe (what the remote did: cache tier hit,
	// on-demand translation, verification). The cache grafts it under
	// the local peer_fetch span so the origin's trace is the stitched
	// cross-node tree.
	Remote *trace.Span
}

// PeerOrigin is the originating request context a peer probe carries
// across the node boundary: the trace (job) ID the probe works for and
// the origin's HTTP request ID. The remote side records its own span
// tree under the trace parent and echoes the request ID, so a remote
// failure names a request that actually exists — on the origin.
type PeerOrigin struct {
	TraceID   string
	RequestID string
}

// Quarantine reasons: the closed label set for per-reason quarantine
// attribution, shared by the cache's admission verdicts, the cluster
// engine's transport-level verdicts, and the metrics exposition (which
// pre-registers every reason so a zero series is visible, not absent).
const (
	QuarantineFrame          = "frame"            // peer frame failed to decode
	QuarantineKeyMismatch    = "key-mismatch"     // frame bound to a different cache key
	QuarantineHash           = "hash"             // module bytes hash to a different content address
	QuarantineVerifier       = "verifier-refusal" // SFI admission gate refused the program
	QuarantineCorrespondence = "correspondence"   // retranslation equality (spot check or push) failed
)

// QuarantineReasons lists every reason above, in exposition order.
var QuarantineReasons = []string{
	QuarantineFrame, QuarantineKeyMismatch, QuarantineHash,
	QuarantineVerifier, QuarantineCorrespondence,
}

// PeerSource is the cluster hook: on a memory+disk miss the cache asks
// it for candidates, verifies them here, and reports each verdict back
// so the source can keep per-peer counters. Implementations must be
// safe for concurrent use. Fetch returning no candidates is a normal
// miss; transport errors are the source's business (they look like a
// miss here).
type PeerSource interface {
	Fetch(key string, org PeerOrigin) []PeerCandidate
	// Admitted reports that peer's candidate for key passed
	// verification and was installed.
	Admitted(key, peer string)
	// Quarantined reports that peer's candidate for key was refused by
	// the admission gate (or the integrity spot check); reason is one
	// of the Quarantine* constants.
	Quarantined(key, peer, reason string, err error)
}

// loadFromPeer probes the peer source after a memory and disk miss.
// Candidates are tried in order; the first to pass the admission gate
// (and, if due, the integrity spot check) wins. Every refused
// candidate is quarantined and counted — the lookup degrades to a
// translation, never to serving unverified code.
func (c *Cache) loadFromPeer(sp *trace.Span, k string, retranslate retranslateFn, mach *target.Machine, si translate.SegInfo) (*target.Program, bool) {
	psp := sp.Child("peer_fetch")
	defer psp.End()
	org := PeerOrigin{TraceID: psp.TraceID(), RequestID: psp.RequestID()}
	cands := c.peer.Fetch(k, org)
	psp.Set("candidates", len(cands))
	for _, cand := range cands {
		if cand.Prog == nil {
			continue
		}
		err := c.admit(psp, cand.Prog, mach, si)
		reason := QuarantineVerifier
		if err == nil {
			reason = QuarantineCorrespondence
			err = c.spotCheck(psp, cand.Prog, retranslate)
		}
		if err != nil {
			c.ctr.Add(metrics.CachePeerQuarantines, 1)
			c.peer.Quarantined(k, cand.Peer, reason, err)
			c.logf("mcache: peer %s candidate for %q quarantined (%s): %v", cand.Peer, k, reason, err)
			continue
		}
		c.ctr.Add(metrics.CachePeerHits, 1)
		c.peer.Admitted(k, cand.Peer)
		psp.Set("peer", cand.Peer)
		psp.AttachRemote(cand.Remote, cand.Peer)
		return cand.Prog, true
	}
	return nil, false
}

// retranslateFn re-derives the translation locally for the integrity
// spot check; nil disables the check for that lookup.
type retranslateFn = func() (*target.Program, error)

// spotCheck re-derives the translation locally every Nth peer
// admission and demands instruction-for-instruction equality. The SFI
// gate proves *containment* (the program cannot escape its sandbox);
// the spot check samples *correspondence* (the program is the
// translation of the module it claims to be) — cheap insurance the
// deterministic translator makes possible. Disabled when
// PeerSpotCheckEvery is 0.
func (c *Cache) spotCheck(sp *trace.Span, got *target.Program, retranslate retranslateFn) error {
	if c.spotEvery <= 0 || retranslate == nil {
		return nil
	}
	if c.spotClock.Add(1)%uint64(c.spotEvery) != 0 {
		return nil
	}
	ssp := sp.Child("spot_check")
	defer ssp.End()
	return c.correspond(ssp, got, retranslate)
}

// correspond is the correspondence check itself: retranslate locally
// and demand instruction-for-instruction equality. Run on every
// replication push (AdmitKeyed) and on sampled peer fills (spotCheck).
func (c *Cache) correspond(sp *trace.Span, got *target.Program, retranslate retranslateFn) error {
	c.ctr.Add(metrics.CacheSpotChecks, 1)
	local, err := retranslate()
	if err != nil {
		// The local translator refusing the module while a peer serves
		// a "translation" of it is itself a red flag.
		c.ctr.Add(metrics.CacheSpotCheckFails, 1)
		return fmt.Errorf("mcache: spot check: local translation failed: %w", err)
	}
	if !reflect.DeepEqual(local.Code, got.Code) {
		c.ctr.Add(metrics.CacheSpotCheckFails, 1)
		sp.Set("mismatch", true)
		return fmt.Errorf("mcache: spot check: peer translation differs from local retranslation (%d vs %d insts)",
			len(got.Code), len(local.Code))
	}
	return nil
}

// Peek returns the verified program stored under key, if any, checking
// the memory tier and then the persistent tier. It is the peer-serving
// read: no translation, no verification (the *receiving* node verifies
// on arrival — these bytes are never executed here), no miss
// accounting, and no recency touch, so a scan by peers cannot distort
// the local LRU.
func (c *Cache) Peek(key string) (*target.Program, bool) {
	prog, _, ok := c.PeekTier(key)
	return prog, ok
}

// PeekTier is Peek plus the tier that satisfied it ("memory" or
// "disk") — peer-serving handlers annotate their remote span with it so
// the origin's stitched trace shows where the bytes actually lived.
func (c *Cache) PeekTier(key string) (*target.Program, string, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		prog := el.Value.(*entry).prog
		sh.mu.Unlock()
		return prog, "memory", true
	}
	sh.mu.Unlock()
	if c.disk == nil {
		return nil, "", false
	}
	prog, err := c.disk.Get(key)
	if err != nil {
		return nil, "", false
	}
	return prog, "disk", true
}

// AdmitKeyed verifies and installs a translation under an explicit
// cache key — the replication-push receive path. The key is parsed
// back into the machine and segment shape the program claims to target
// so the admission gate checks it against the right policy; a key that
// does not parse, names an unknown machine, or carries a program the
// verifier refuses is rejected outright.
//
// Pushes are unsolicited, so containment alone is not enough: when
// retranslate is non-nil the correspondence check runs on EVERY push
// (not sampled like the fetch path) — a sandboxed-but-semantically-
// wrong program is refused, counted, and never installed. Callers that
// cannot produce a retranslate function (no module at hand) should
// refuse the push instead of passing nil.
//
// The disk tier is written only when it has no entry for the key yet:
// a push must never replace a translation this node already verified
// and persisted.
func (c *Cache) AdmitKeyed(k string, prog *target.Program, retranslate func() (*target.Program, error)) error {
	mach, si, opt, err := ParseKey(k)
	if err != nil {
		return err
	}
	if !opt.SFI {
		return ErrUnsandboxed
	}
	if err := c.admit(nil, prog, mach, si); err != nil {
		return err
	}
	if retranslate != nil {
		if err := c.correspond(nil, prog, retranslate); err != nil {
			c.ctr.Add(metrics.CachePeerQuarantines, 1)
			return err
		}
	}
	size := progSize(prog, mach)
	sh := c.shardFor(k)
	sh.mu.Lock()
	keep := c.insertLocked(sh, k, prog, size)
	sh.mu.Unlock()
	c.evict(keep)
	if c.disk == nil || !c.disk.Has(k) {
		c.writeThrough(nil, k, prog)
	}
	return nil
}

// ParseKey inverts the cache key format: it recovers the target
// machine, segment shape, and translator options a key was minted
// under. The module hash is returned via KeyModuleHash; admission only
// needs the policy fields. Keys are versioned (the "k1|" prefix), so a
// future format change is an explicit error here, not a misparse.
func ParseKey(k string) (*target.Machine, translate.SegInfo, translate.Options, error) {
	var si translate.SegInfo
	var opt translate.Options
	parts := strings.Split(k, "|")
	if len(parts) != 5 || parts[0] != "k1" {
		return nil, si, opt, fmt.Errorf("mcache: unparseable cache key %q", k)
	}
	mach := target.ByName(parts[2])
	if mach == nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key names unknown machine %q", parts[2])
	}
	if _, err := fmt.Sscanf(parts[3], "%08x.%08x.%08x.%08x", &si.DataBase, &si.DataMask, &si.GPValue, &si.RegSave); err != nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key segment fields %q: %v", parts[3], err)
	}
	if _, err := fmt.Sscanf(parts[4], "sfi=%t,sched=%t,gp=%t,peep=%t,hoist=%t,rsfi=%t",
		&opt.SFI, &opt.Schedule, &opt.GlobalPointer, &opt.Peephole, &opt.SFIHoist, &opt.ReadSFI); err != nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key option fields %q: %v", parts[4], err)
	}
	return mach, si, opt, nil
}

// KeyModuleHash extracts the module content address from a cache key.
func KeyModuleHash(k string) (string, error) {
	parts := strings.Split(k, "|")
	if len(parts) != 5 || parts[0] != "k1" {
		return "", fmt.Errorf("mcache: unparseable cache key %q", k)
	}
	return parts[1], nil
}

// KeyFor builds the cache key for a module hash without needing the
// module itself — the cluster client's routing and probe path.
func KeyFor(modHash string, mach *target.Machine, si translate.SegInfo, opt translate.Options) string {
	return key(modHash, mach, si, opt)
}

// HotEntry is one memory-tier entry with its shard-local hit count —
// the replication layer's raw material.
type HotEntry struct {
	Key  string
	Hits uint64
}

// Hot returns up to k entries ordered by descending hit count,
// counting only entries that have actually been hit (an entry nobody
// asked for twice is not worth replicating). k <= 0 returns all hit
// entries.
func (c *Cache) Hot(k int) []HotEntry {
	var out []HotEntry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if e.hits > 0 {
				out = append(out, HotEntry{Key: e.key, Hits: e.hits})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
