package mcache_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// fakePeers is an in-process PeerSource: a map of candidate lists plus
// the attribution callbacks recorded for inspection.
type fakePeers struct {
	mu          sync.Mutex
	cands       map[string][]mcache.PeerCandidate
	admitted    []string // "key@peer"
	quarantined []string // "key@peer/reason"
	origins     []mcache.PeerOrigin
}

func (f *fakePeers) Fetch(key string, org mcache.PeerOrigin) []mcache.PeerCandidate {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.origins = append(f.origins, org)
	return f.cands[key]
}

func (f *fakePeers) Admitted(key, peer string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.admitted = append(f.admitted, key+"@"+peer)
}

func (f *fakePeers) Quarantined(key, peer, reason string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quarantined = append(f.quarantined, key+"@"+peer+"/"+reason)
}

func stripSandboxMask(t *testing.T, prog *target.Program, m *target.Machine) {
	t.Helper()
	for i := range prog.Code {
		in := &prog.Code[i]
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			in.Op = target.Nop
			in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
			return
		}
	}
	t.Fatal("no sandboxing mask found to strip")
}

// TestPeerFill is the acceptance-criterion path in miniature: a cold
// cache whose peer already holds the translation serves it with zero
// local translations, and the fill is visible in stats and the trace.
func TestPeerFill(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	warmProg, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
		k: {{Prog: warmProg, Peer: "node-b"}},
	}}
	cold := mcache.NewWith(mcache.Config{Peer: peers})

	tr := trace.New("t1", "lookup")
	sp := tr.Root
	prog, served, err := cold.TranslateTraced(sp, mod, m, si, opt)
	tr.Finish("ok")
	if err != nil {
		t.Fatal(err)
	}
	if !served || prog != warmProg {
		t.Errorf("peer fill not served warm (served=%v)", served)
	}
	s := stats(cold)
	if s.CacheMisses != 0 {
		t.Errorf("peer fill still translated locally: %+v", s)
	}
	if s.CachePeerHits != 1 || s.CachePeerQuarantines != 0 {
		t.Errorf("peer counters wrong: %+v", s)
	}
	if len(peers.admitted) != 1 || peers.admitted[0] != k+"@node-b" {
		t.Errorf("admission attribution %v", peers.admitted)
	}
	if sp.Find("peer_fetch") == nil {
		t.Error("no peer_fetch span recorded")
	}
	if len(peers.origins) != 1 || peers.origins[0].TraceID != "t1" {
		t.Errorf("peer probe origin not propagated: %+v", peers.origins)
	}
	if sp.Find("translate") != nil {
		t.Error("translate span recorded on a peer fill")
	}
	// The fill is now a local entry: the next lookup is a plain hit.
	if _, served, _ := cold.Translate(mod, m, si, opt); !served {
		t.Error("entry not installed after peer fill")
	}
}

// TestPeerQuarantine drives the adversarial-peer contract at the cache
// layer under both verify modes: a tampered candidate is quarantined
// and counted, never served, and the lookup degrades to an honest
// local translation. A later honest candidate from another peer is
// still accepted.
func TestPeerQuarantine(t *testing.T) {
	for _, mode := range []mcache.VerifyMode{mcache.VerifyCheck, mcache.VerifyBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			mod := buildMod(t, prog1)
			m := target.MIPSMachine()
			si := core.SegInfoFor(mod, core.RunConfig{})
			opt := translate.Paper(true)

			tampered, err := translate.Translate(mod, m, si, opt)
			if err != nil {
				t.Fatal(err)
			}
			stripSandboxMask(t, tampered, m)
			k := mcache.Key(mod, m, si, opt)
			peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
				k: {{Prog: tampered, Peer: "evil"}},
			}}
			c := mcache.NewWith(mcache.Config{Peer: peers, Verify: mode})

			prog, served, err := c.Translate(mod, m, si, opt)
			if err != nil {
				t.Fatal(err)
			}
			if served {
				t.Error("tampered peer candidate served as warm")
			}
			if prog == tampered {
				t.Fatal("tampered program escaped quarantine")
			}
			s := stats(c)
			if s.CachePeerQuarantines != 1 || s.CachePeerHits != 0 || s.CacheMisses != 1 {
				t.Errorf("stats %+v", s)
			}
			if len(peers.quarantined) != 1 || peers.quarantined[0] != k+"@evil/"+mcache.QuarantineVerifier {
				t.Errorf("quarantine attribution %v", peers.quarantined)
			}
		})
	}
}

// TestPeerSecondCandidateWins: the first (bad) candidate is
// quarantined and the next owner's honest copy is admitted — the
// probe order degrades per candidate, not per lookup.
func TestPeerSecondCandidateWins(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	good, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	stripSandboxMask(t, bad, m)
	k := mcache.Key(mod, m, si, opt)
	peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
		k: {{Prog: bad, Peer: "evil"}, {Prog: good, Peer: "honest"}},
	}}
	c := mcache.NewWith(mcache.Config{Peer: peers})

	prog, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !served || prog != good {
		t.Errorf("honest second candidate not served (served=%v)", served)
	}
	s := stats(c)
	if s.CachePeerHits != 1 || s.CachePeerQuarantines != 1 || s.CacheMisses != 0 {
		t.Errorf("stats %+v", s)
	}
}

// TestPeerSpotCheck: a candidate that *passes* the SFI gate but is not
// the translation of the requested module (here: translated under
// different options, so containment holds but the code differs) is
// caught by the retranslation spot check.
func TestPeerSpotCheck(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	// Translated without scheduling: still contained (the SFI gate
	// passes it), but not the code the requested identity names.
	unsched := opt
	unsched.Schedule = false
	wrong, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt) // the *scheduled* identity
	peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
		k: {{Prog: wrong, Peer: "confused"}},
	}}
	c := mcache.NewWith(mcache.Config{Peer: peers, PeerSpotCheckEvery: 1})

	_, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Error("wrong-translation candidate served as warm")
	}
	s := stats(c)
	if s.CacheSpotChecks != 1 || s.CacheSpotCheckFails != 1 || s.CachePeerQuarantines != 1 || s.CachePeerHits != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.SPARCMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	opt.SFIHoist = true

	k := mcache.Key(mod, m, si, opt)
	gm, gsi, gopt, err := mcache.ParseKey(k)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Name != m.Name || gsi != si || gopt != opt {
		t.Errorf("ParseKey(%q) = %s %+v %+v", k, gm.Name, gsi, gopt)
	}
	h, err := mcache.KeyModuleHash(k)
	if err != nil || h != mcache.ModuleHash(mod) {
		t.Errorf("KeyModuleHash = %q, %v", h, err)
	}
	if mcache.KeyFor(h, m, si, opt) != k {
		t.Error("KeyFor does not rebuild the key")
	}
	for _, bad := range []string{"", "k1", "k2|a|mips|x|y", "k1|h|vax|00000000.00000000.00000000.00000000|sfi=true,sched=true,gp=true,peep=true,hoist=true,rsfi=true"} {
		if _, _, _, err := mcache.ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

// TestPeekAndAdmitKeyed covers the peer-serving read and the
// replication-push write: Peek exposes what is stored without
// verifying or touching recency; AdmitKeyed re-verifies a pushed
// program against the policy its key encodes and, when a retranslate
// function is supplied, demands correspondence on every push.
func TestPeekAndAdmitKeyed(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	retranslate := func() (*target.Program, error) {
		return translate.Translate(mod, m, si, opt)
	}

	c := mcache.New(0)
	if _, ok := c.Peek(k); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	if err := c.AdmitKeyed(k, prog, retranslate); err != nil {
		t.Fatalf("honest push rejected: %v", err)
	}
	if got, ok := c.Peek(k); !ok || got != prog {
		t.Error("Peek does not see the pushed entry")
	}
	if s := stats(c); s.CacheSpotChecks != 1 || s.CacheSpotCheckFails != 0 {
		t.Errorf("push correspondence not checked: %+v", s)
	}

	tampered, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	stripSandboxMask(t, tampered, m)
	c2 := mcache.New(0)
	err = c2.AdmitKeyed(k, tampered, retranslate)
	if err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("tampered push admitted: %v", err)
	}
	if _, ok := c2.Peek(k); ok {
		t.Error("tampered push visible via Peek")
	}
	if err := c2.AdmitKeyed("not-a-key", prog, retranslate); err == nil {
		t.Error("unparseable key accepted")
	}
}

// TestAdmitKeyedCorrespondence: a pushed program that PASSES the SFI
// gate (it is contained) but is not the translation of the module its
// key names must be refused by the push-path correspondence check —
// this runs on every push, not sampled like the fetch path.
func TestAdmitKeyedCorrespondence(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	// Translated without scheduling: contained, but not the code the
	// scheduled identity names.
	unsched := opt
	unsched.Schedule = false
	wrong, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	c := mcache.NewWith(mcache.Config{Logf: t.Logf})
	err = c.AdmitKeyed(k, wrong, func() (*target.Program, error) {
		return translate.Translate(mod, m, si, opt)
	})
	if err == nil || !strings.Contains(err.Error(), "spot check") {
		t.Fatalf("sandboxed-but-wrong push admitted: %v", err)
	}
	if _, ok := c.Peek(k); ok {
		t.Error("wrong push visible via Peek")
	}
	s := stats(c)
	if s.CacheSpotChecks != 1 || s.CacheSpotCheckFails != 1 || s.CachePeerQuarantines != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestAdmitKeyedNeverOverwritesDisk: a push for a key the persistent
// tier already holds must not rewrite the disk entry — a correct
// persisted translation survives whatever a push later claims.
func TestAdmitKeyedNeverOverwritesDisk(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)

	store, err := diskstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := mcache.NewWith(mcache.Config{Disk: store, Logf: t.Logf})
	if err := c.AdmitKeyed(k, prog, nil); err != nil {
		t.Fatalf("first push rejected: %v", err)
	}
	if !store.Has(k) {
		t.Fatal("first push not written through")
	}

	// A different-but-contained program pushed to a fresh cache over
	// the same store (retranslate nil so only the disk guard stands
	// between it and the persisted entry).
	unsched := opt
	unsched.Schedule = false
	other, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mcache.NewWith(mcache.Config{Disk: store, Logf: t.Logf})
	if err := c2.AdmitKeyed(k, other, nil); err != nil {
		t.Fatalf("second push rejected: %v", err)
	}
	onDisk, err := store.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk.Code, prog.Code) {
		t.Error("push overwrote the persisted entry")
	}
}

func TestHotRanking(t *testing.T) {
	mod := buildMod(t, prog1)
	other := buildMod(t, `int main(void){ return 7; }`)
	c := mcache.New(0)
	si := core.SegInfoFor(mod, core.RunConfig{})
	sio := core.SegInfoFor(other, core.RunConfig{})
	opt := translate.Paper(true)
	m := target.MIPSMachine()

	for i := 0; i < 4; i++ { // 1 miss + 3 hits
		if _, _, err := c.Translate(mod, m, si, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // 1 miss + 1 hit
		if _, _, err := c.Translate(other, m, sio, opt); err != nil {
			t.Fatal(err)
		}
	}
	hot := c.Hot(10)
	if len(hot) != 2 {
		t.Fatalf("Hot = %v, want 2 entries", hot)
	}
	if hot[0].Key != mcache.Key(mod, m, si, opt) || hot[0].Hits != 3 || hot[1].Hits != 1 {
		t.Errorf("Hot ranking wrong: %v", hot)
	}
	if got := c.Hot(1); len(got) != 1 || got[0].Key != hot[0].Key {
		t.Errorf("Hot(1) = %v", got)
	}
}
