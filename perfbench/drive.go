package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/translate"
)

// jobDeadline is every job's wall-clock deadline (the netserve
// default); a shed open-loop job counts as taking this long.
const jobDeadline = 10 * time.Second

// outcome is one finished job as the client saw it, kept small since
// a fast workload keeps hundreds of thousands. Times are in
// milliseconds; for the open loop, lat runs from the job's due time.
type outcome struct {
	lat, queueWait, run float32
	light               bool // the job ran the trivial module
	ok                  bool // correct result
	err                 bool // transport or server error
	shed                bool // refused by TrySubmit
}

// runStats is the timed part of one run.
type runStats struct {
	wall     time.Duration
	mu       sync.Mutex
	outcomes []outcome
	late     []float64 // open loop: ms from due time to submission
}

func (r *runStats) add(o outcome) {
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

// drive runs the workload's timed loop for dur.
func drive(st *state, chk *checker, dur time.Duration, tr *tracer) (*runStats, error) {
	if st.wl.rate > 0 {
		return runOpen(st, chk, dur, tr), nil
	}
	return runClosed(st, chk, dur, tr)
}

// runClosed runs workers() clients, each sending its next request
// over HTTP once the previous one has answered, until dur has passed
// and the schedule's current round is dealt; requests in flight then
// finish and count.
func runClosed(st *state, chk *checker, dur time.Duration, tr *tracer) (*runStats, error) {
	sched := newSchedule(st.deck, st.seed)
	rs := &runStats{}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	start := time.Now()
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := st.srv.client()
			for {
				i, p, ok := sched.next(time.Since(start) >= dur)
				if !ok {
					return
				}
				o, err := closedJob(st, cl, chk, i, p, tr)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				rs.add(o)
			}
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	if e := firstErr.Load(); e != nil {
		return nil, *e
	}
	return rs, nil
}

// closedJob sends job i: on cold-admit an upload of a fresh salted
// variant first, then the exec. The server's queue-wait and run
// intervals become child spans of the exec span, placed against its
// end; the exec span's self time is then the HTTP and JSON overhead.
func closedJob(st *state, cl *netserve.Client, chk *checker, i int, p pair, tr *tracer) (outcome, error) {
	prog := st.progs[p.prog]
	o := outcome{light: prog.light}
	hash := prog.hash
	var blob []byte
	if st.wl.cold {
		var err error
		if blob, err = prog.variant(saltFor(st.seed, i)); err != nil {
			return o, err
		}
	}
	req := int64(i)
	root := tr.begin("job", -1, req)
	t0 := time.Now()
	if blob != nil {
		id := tr.begin("client.upload", root, req)
		resp, err := cl.Upload(blob)
		tr.end(id, uint64(len(blob)))
		if err != nil {
			o.err = true
			o.lat = float32(msSince(t0))
			tr.end(root, 0)
			return o, nil
		}
		hash = resp.Hash
	}
	id := tr.begin("client.exec", root, req)
	resp, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: targetNames[p.tgt]})
	end := tr.end(id, 0)
	o.lat = float32(msSince(t0))
	tr.end(root, 0)
	if err != nil {
		o.err = true
		return o, nil
	}
	o.queueWait = float32(resp.QueueWaitUs) / 1e3
	o.run = float32(resp.RunUs) / 1e3
	if id >= 0 {
		runStart := end - resp.RunUs*1e3
		tr.add(span{Name: "serve.run", Start: runStart, End: end, Parent: id, Req: req})
		tr.add(span{Name: "serve.queue_wait", Start: runStart - resp.QueueWaitUs*1e3, End: runStart, Parent: id, Req: req})
	}
	o.ok = chk.check(p, resp.Status, resp.Exit, resp.Output, resp.Insts, resp.Cycles)
	return o, nil
}

// runOpen submits jobs straight into the worker pool at seeded
// Poisson arrival times: rate×dur arrivals at uniformly random times,
// which is a Poisson process conditioned on its count. Each job's
// latency runs from its due time, so a late generator or a full queue
// shows up in it. A shed (TrySubmit refused) counts as failed and as
// taking jobDeadline.
func runOpen(st *state, chk *checker, dur time.Duration, tr *tracer) *runStats {
	rng := rand.New(rand.NewSource(st.seed))
	n := int(st.wl.rate*dur.Seconds() + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	sched := newSchedule(st.deck, st.seed)
	rs := &runStats{}
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		at := start.Add(due[k])
		waitUntil(at)
		i, p, _ := sched.next(false)
		prog := st.progs[p.prog]
		req := int64(i)
		late := time.Since(at)
		rs.late = append(rs.late, ms(late))
		root := tr.add(span{Name: "job", Start: tr.now() - int64(late), End: -1, Parent: -1, Req: req})
		id := tr.begin("serve.try_submit", root, req)
		ch, ok := st.srv.pool.TrySubmit(serve.Job{
			ID:      fmt.Sprintf("open-%d", i),
			Mod:     prog.mod,
			Machine: machines[p.tgt],
			Opt:     translate.Paper(true),
			Timeout: jobDeadline,
		})
		tr.end(id, 0)
		if !ok {
			tr.end(root, 0)
			rs.add(outcome{light: prog.light, lat: float32(jobDeadline.Milliseconds()), shed: true})
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := <-ch
			o := outcome{light: prog.light, lat: float32(msSince(at)), queueWait: float32(ms(r.QueueWait)), run: float32(ms(r.Run))}
			if end := tr.end(root, 0); root >= 0 {
				runStart := end - int64(r.Run)
				tr.add(span{Name: "serve.run", Start: runStart, End: end, Parent: root, Req: req})
				tr.add(span{Name: "serve.queue_wait", Start: runStart - int64(r.QueueWait), End: runStart, Parent: root, Req: req})
			}
			status := "ok"
			switch {
			case r.Err != nil:
				status, o.err = "error: "+r.Err.Error(), true
			case r.Faulted:
				status = "fault: " + r.Fault
			}
			o.ok = chk.check(p, status, r.ExitCode, r.Output, r.Insts, r.Cycles)
			rs.add(o)
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	return rs
}

// waitUntil sleeps to within spinWindow of t, which the timer can
// overshoot by about that much, and spins the rest of the way, so the
// generator's lateness is scheduling delay, not timer granularity.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

const spinWindow = 2 * time.Millisecond

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
