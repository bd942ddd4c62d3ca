package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ref is a program's expected outcome, computed in set-up on the
// OmniVM interpreter, which shares no code with the translators or
// the target simulators.
type ref struct {
	exit int32
	out  string
}

// simCount holds the simulated instruction and cycle counts of the
// first run of one (program, target) pair; every later run of the pair
// must repeat them exactly.
type simCount struct {
	insts, cycles atomic.Uint64
}

// checker compares every job's outcome with its program's reference
// and its simulated counts with the pair's first run. It is safe for
// concurrent use.
type checker struct {
	refs    []ref
	ntarget int
	sims    []simCount // indexed by pair: prog*ntarget + target

	wrong atomic.Int64 // jobs whose outcome or counts were wrong

	mu     sync.Mutex
	sample []string // the first few mismatches, for the report
}

func newChecker(refs []ref, ntarget int) *checker {
	return &checker{refs: refs, ntarget: ntarget, sims: make([]simCount, len(refs)*ntarget)}
}

// check records one finished job and reports whether it was correct.
// status is "ok" for a clean run; anything else is an error or a
// contained fault, which a benchmark program must never produce.
func (c *checker) check(p pair, status string, exit int32, out string, insts, cycles uint64) bool {
	r := c.refs[p.prog]
	var why string
	switch {
	case status != "ok":
		why = "status " + status
	case exit != r.exit:
		why = fmt.Sprintf("exit %d, reference %d", exit, r.exit)
	case out != r.out:
		why = fmt.Sprintf("output %.40q, reference %.40q", out, r.out)
	case insts == 0 || cycles == 0:
		why = "no simulated instructions"
	default:
		s := &c.sims[p.prog*c.ntarget+p.tgt]
		s.insts.CompareAndSwap(0, insts)
		s.cycles.CompareAndSwap(0, cycles)
		if i, cy := s.insts.Load(), s.cycles.Load(); i != insts || cy != cycles {
			why = fmt.Sprintf("%d insts %d cycles, earlier run %d insts %d cycles", insts, cycles, i, cy)
		}
	}
	if why == "" {
		return true
	}
	c.wrong.Add(1)
	c.mu.Lock()
	if len(c.sample) < 5 {
		c.sample = append(c.sample, fmt.Sprintf("program %d target %d: %s", p.prog, p.tgt, why))
	}
	c.mu.Unlock()
	return false
}

// simCycles sums the simulated cycles of every pair that ran.
func (c *checker) simCycles() uint64 {
	var sum uint64
	for i := range c.sims {
		sum += c.sims[i].cycles.Load()
	}
	return sum
}

// mismatches returns the recorded mismatch descriptions.
func (c *checker) mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.sample...)
}
