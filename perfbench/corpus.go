package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/ovm"
	"omniware/internal/target"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// targetNames are the four simulated machines, in pair order.
var targetNames = []string{"mips", "sparc", "ppc", "x86"}

var machines = func() []*target.Machine {
	ms := make([]*target.Machine, len(targetNames))
	for i, n := range targetNames {
		ms[i] = target.ByName(n)
	}
	return ms
}()

const (
	trivName = "trivload"
	trivSrc  = `int main(void) { return 0; }`

	// coldPool is the number of generated programs cold-admit draws
	// from; each job uploads one of them under a fresh salt.
	coldPool = 32

	// lightPerSpec is mixed-open's traffic ratio: each SPEC program
	// once for every 16 trivial jobs, over the four targets.
	lightPerSpec = 16
)

// source is one program before compilation.
type source struct {
	name  string
	light bool // the trivial module: the light class of mixed-open
	files []core.SourceFile
}

// program is one compiled program of a workload's corpus.
type program struct {
	source
	mod  *ovm.Module
	blob []byte // canonical OMW encoding
	hash string // content hash the server returned at upload
	salt int    // data offset of the salt word, generated programs only
}

// pair names one job input: a program run on one target.
type pair struct{ prog, tgt int }

func specSources() ([]source, error) {
	var out []source
	for _, n := range bench.WorkloadNames {
		files, err := bench.Sources(n, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, source{name: n, files: files})
	}
	return out, nil
}

func trivSource() source {
	return source{name: trivName, light: true, files: []core.SourceFile{{Name: "trivload.c", Src: trivSrc}}}
}

// genSources is cold-admit's seeded pool of generated programs.
func genSources(seed int64) []source {
	out := make([]source, coldPool)
	for i := range out {
		src := genProgram(seed*1_000_003+int64(i), poolParams(i, coldPool))
		out[i] = source{name: fmt.Sprintf("gen%02d", i), files: []core.SourceFile{{Name: "gen.c", Src: src}}}
	}
	return out
}

// build compiles one program and encodes it for upload.
func build(s source) (*program, error) {
	mod, err := core.BuildC(s.files, cc.Options{OptLevel: 2})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", s.name, err)
	}
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", s.name, err)
	}
	p := &program{source: s, mod: mod, blob: blob, salt: -1}
	for _, sym := range mod.Symbols {
		if sym.Name == saltWord && sym.Section == ovm.SecData {
			p.salt = int(sym.Value - mod.DataBase)
		}
	}
	return p, nil
}

// reference runs the program on the OmniVM interpreter; tr records
// the Host.RunInterp call.
func (p *program) reference(tr *tracer, req int64) (ref, error) {
	h, err := core.NewHost(p.mod, core.RunConfig{})
	if err != nil {
		return ref{}, err
	}
	id := tr.begin("interp.run", -1, req)
	res, err := h.RunInterp()
	tr.end(id, res.Steps)
	if err != nil {
		return ref{}, fmt.Errorf("interpreting %s: %w", p.name, err)
	}
	if res.Faulted {
		return ref{}, fmt.Errorf("interpreting %s: fault %s", p.name, res.Fault)
	}
	return ref{exit: res.ExitCode, out: h.Output()}, nil
}

// variant returns the program's OMW encoding with its salt word set
// to salt: a distinct module whose code and output are the program's.
func (p *program) variant(salt uint32) ([]byte, error) {
	if p.salt < 0 || p.salt+4 > len(p.mod.Data) {
		return nil, fmt.Errorf("%s has no initialized %s word", p.name, saltWord)
	}
	m := *p.mod
	m.Data = append([]byte(nil), p.mod.Data...)
	binary.LittleEndian.PutUint32(m.Data[p.salt:], salt)
	return wire.EncodeModule(&m)
}

// prewarm fills the server's translation cache for the program on
// every target, through the same cache call a job makes.
func (p *program) prewarm(s *server) error {
	si := core.SegInfoFor(p.mod, core.RunConfig{})
	for _, m := range machines {
		if _, _, err := s.pool.Cache().Translate(p.mod, m, si, translate.Paper(true)); err != nil {
			return fmt.Errorf("prewarming %s on %s: %w", p.name, m.Name, err)
		}
	}
	return nil
}

// deckOf lists the pairs of one round of a workload's traffic: every
// program on every target, the light programs weight times each.
func deckOf(progs []*program, lightWeight int) []pair {
	var d []pair
	for i, p := range progs {
		n := 1
		if p.light {
			n = lightWeight
		}
		for t := range targetNames {
			for k := 0; k < n; k++ {
				d = append(d, pair{i, t})
			}
		}
	}
	return d
}

// schedule deals jobs from a deck: the deck is reshuffled with the
// seeded generator each time it runs out, so every round holds each
// pair exactly as often as the mix says and only the order is random.
// Job i is the same pair for the same seed however many clients draw.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	deck   []pair
	perm   []int
	n      int
	closed bool
}

func newSchedule(deck []pair, seed int64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), deck: deck}
}

// next returns the next job's index and pair. Once a caller passes
// stop, the schedule ends at the next round boundary, so a timed run
// is made of whole rounds and its mix does not depend on where the
// clock ran out; ok is false from then on.
func (s *schedule) next(stop bool) (i int, p pair, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.n % len(s.deck)
	if s.closed || stop && k == 0 && s.n > 0 {
		s.closed = true
		return 0, pair{}, false
	}
	if k == 0 {
		s.perm = s.rng.Perm(len(s.deck))
	}
	i = s.n
	s.n++
	return i, s.deck[s.perm[k]], true
}

// saltFor gives job i of a run its salt word; distinct i give
// distinct salts (an odd multiplier is a bijection mod 2^32).
func saltFor(seed int64, i int) uint32 {
	return uint32(i+1)*0x9E3779B1 ^ uint32(seed)
}
