package main

import (
	"fmt"
	"time"

	"omniware/internal/audit"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// Calls that take microseconds are repeated so their medians are not
// timer noise; a program run is repeated until it has taken at least
// minRunTime or cheapReps runs.
const (
	cheapReps  = 100
	minRunTime = 20 * time.Millisecond
)

// replayResult is what the replay measures besides its spans.
type replayResult struct {
	omniInsts, targetInsts uint64 // static, over the distinct pairs
	mismatches             int    // replayed runs that disagreed with the reference
}

// replay sends each distinct program of the workload, and each of its
// targets, through the layers one public call at a time, each call a
// span: wire.DecodeModule, audit.Analyze, core.AcquireHost+Release,
// mcache.Cache.Translate on a cold key and then a warm one, and
// Host.RunProgram; on the cold key translate.Translate, sfi.Check and
// absint.Check are also timed alone. The cache is a fresh one with the
// server's verifier configuration.
func replay(st *state, tr *tracer) (*replayResult, error) {
	cache := mcache.NewWith(mcache.Config{Limit: cacheMiB << 20, Verify: verifyMode, Logf: func(string, ...any) {}})
	opt := translate.Paper(true)
	out := &replayResult{}
	var req int64 = 1 << 40 // apart from the workload's request ids
	for pi, p := range st.progs {
		mod := p.mod
		for k := 0; k < cheapReps; k++ {
			id := tr.begin("wire.decode", -1, req)
			m, err := wire.DecodeModule(p.blob)
			tr.end(id, uint64(len(p.blob)))
			if err != nil {
				return nil, fmt.Errorf("decoding %s: %w", p.name, err)
			}
			mod = m
		}
		id := tr.begin("audit.analyze", -1, req)
		_, err := audit.Analyze(mod)
		tr.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("auditing %s: %w", p.name, err)
		}
		for _, mach := range machines {
			req++
			in := tr.begin("replay.input", -1, req)
			for k := 0; k < cheapReps; k++ {
				id := tr.begin("core.acquire", in, req)
				h, err := core.AcquireHost(mod, core.RunConfig{})
				if err == nil {
					h.Release()
				}
				tr.end(id, 0)
				if err != nil {
					return nil, err
				}
			}
			si := core.SegInfoFor(mod, core.RunConfig{})
			id := tr.begin("mcache.miss", in, req)
			prog, _, err := cache.Translate(mod, mach, si, opt)
			tr.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("translating %s for %s: %w", p.name, mach.Name, err)
			}
			for k := 0; k < cheapReps; k++ {
				id := tr.begin("mcache.hit", in, req)
				_, cached, err := cache.Translate(mod, mach, si, opt)
				tr.end(id, 0)
				if err != nil || !cached {
					return nil, fmt.Errorf("warm lookup of %s for %s missed: %v", p.name, mach.Name, err)
				}
			}
			id = tr.begin("translate.translate", in, req)
			alone, err := translate.Translate(mod, mach, si, opt)
			tr.end(id, uint64(len(mod.Text)))
			if err != nil {
				return nil, err
			}
			out.omniInsts += uint64(len(mod.Text))
			out.targetInsts += uint64(len(alone.Code))
			id = tr.begin("sfi.check", in, req)
			err = sfi.Check(alone, mach, si)
			tr.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("sfi.Check refused %s for %s: %w", p.name, mach.Name, err)
			}
			id = tr.begin("absint.check", in, req)
			err = absint.Check(alone, mach, si)
			tr.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("absint.Check refused %s for %s: %w", p.name, mach.Name, err)
			}
			var spent time.Duration
			for runs := 0; runs < cheapReps && (runs == 0 || spent < minRunTime); runs++ {
				h, err := core.AcquireHost(mod, core.RunConfig{})
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				id := tr.begin("target.run."+mach.Name, in, req)
				res, err := h.RunProgram(mach, prog)
				tr.end(id, res.Insts)
				spent += time.Since(t0)
				if err != nil || res.Faulted || res.ExitCode != st.refs[pi].exit || h.Output() != st.refs[pi].out {
					out.mismatches++
				}
				h.Release()
			}
			tr.end(in, 0)
		}
	}
	return out, nil
}
