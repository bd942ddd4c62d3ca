package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one seeded traffic mix.
type workload struct {
	name string
	// sources returns the programs set-up compiles.
	sources func(seed int64) ([]source, error)
	// lightWeight is how often each light program appears in a deck
	// round per target (the other programs appear once).
	lightWeight int
	// cold: every job uploads a fresh salted variant of its program,
	// so nothing is uploaded or prewarmed in set-up.
	cold bool
	// rate is the open loop's arrival rate in jobs/s; zero means a
	// closed loop of workers() clients.
	rate float64
}

// Open-loop arrival rate of mixed-open, about half its capacity when
// the benchmark was defined (spec-closed's 3.6–4.6 jobs/s times five,
// one job in five being a SPEC job), and the lateness past which a
// run is invalid (the generator could not keep to its schedule).
const (
	mixedRate   = 9.0
	lateBoundMs = 50.0
)

var workloads = []*workload{
	{name: "spec-closed", sources: func(int64) ([]source, error) { return specSources() }},
	{name: "triv-closed", sources: func(int64) ([]source, error) { return []source{trivSource()}, nil }},
	{name: "cold-admit", cold: true, sources: func(seed int64) ([]source, error) { return genSources(seed), nil }},
	{name: "mixed-open", lightWeight: lightPerSpec, rate: mixedRate, sources: func(int64) ([]source, error) {
		spec, err := specSources()
		return append([]source{trivSource()}, spec...), err
	}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// state is one set-up: a booted server and the compiled corpus with
// its references.
type state struct {
	wl    *workload
	seed  int64
	srv   *server
	progs []*program
	refs  []ref
	deck  []pair
}

// setUp boots a server, compiles the corpus, computes the interpreter
// references, and (for the warm workloads) uploads every program and
// prewarms its translations. tr, when non-nil, records the cc build,
// interpreter and upload calls.
func setUp(wl *workload, seed int64, tr *tracer) (*state, error) {
	srcs, err := wl.sources(seed)
	if err != nil {
		return nil, err
	}
	srv, err := bootServer()
	if err != nil {
		return nil, err
	}
	st := &state{wl: wl, seed: seed, srv: srv}
	cl := srv.client()
	for i, s := range srcs {
		id := tr.begin("cc.build", -1, int64(i))
		p, err := build(s)
		tr.end(id, 0)
		if err != nil {
			srv.close()
			return nil, err
		}
		r, err := p.reference(tr, int64(i))
		if err != nil {
			srv.close()
			return nil, err
		}
		if wl.cold && p.salt < 0 {
			srv.close()
			return nil, fmt.Errorf("%s: generated program lacks %s", p.name, saltWord)
		}
		if !wl.cold {
			id = tr.begin("client.upload", -1, int64(i))
			resp, err := cl.Upload(p.blob)
			tr.end(id, uint64(len(p.blob)))
			if err == nil {
				p.hash = resp.Hash
				err = p.prewarm(srv)
			}
			if err != nil {
				srv.close()
				return nil, fmt.Errorf("uploading %s: %w", p.name, err)
			}
		}
		st.progs = append(st.progs, p)
		st.refs = append(st.refs, r)
	}
	st.deck = deckOf(st.progs, max(1, wl.lightWeight))
	return st, nil
}

// Set-up is repeated and its median reported: at least minSetups
// times, and more while the repeats total under minSetupTime, so a
// set-up of milliseconds is still measured over many samples.
const (
	minSetups    = 3
	maxSetups    = 200
	minSetupTime = time.Second
)

// timedSetUp runs set-up once (traced runs) or repeatedly, closing
// all but the last, and returns the last state with every set-up's
// duration in seconds.
func timedSetUp(wl *workload, seed int64, tr *tracer) (*state, []float64, error) {
	var st *state
	var secs []float64
	total := 0.0
	for len(secs) == 0 || tr == nil && len(secs) < maxSetups && (len(secs) < minSetups || total < minSetupTime.Seconds()) {
		if st != nil {
			st.srv.close()
		}
		// Start each set-up from a collected heap, so one set-up's
		// garbage is not charged to the next.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setUp(wl, seed, tr); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[len(secs)-1]
	}
	return st, secs, nil
}
