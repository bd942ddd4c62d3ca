package target

import (
	"sync/atomic"
	"unsafe"
)

// The simulator runs translated code one region at a time. A region
// is straight-line code: plain instructions from a leader, optionally
// ended by a control transfer and, on the delay-slot machines, the
// instruction in its slot. Run adds a whole region's instruction and
// category counts at once, checks the budget and poll threshold once
// per region, and charges the region's pipeline cost from a memo keyed
// by the pipeline state it was entered in (charge).
//
// The memo is exact. issue compares a scoreboard entry only in the
// form avail[s]+k > c, with k in {0, 1} (the AGI penalty) and c at
// least the clock the region was entered at, so every avail[s] at or
// below that clock minus one behaves the same; and issue commutes with
// adding a constant to the clock and every avail. A region's cost is
// therefore a function of the issue slot and, for each live-in
// scoreboard slot (read before the region writes it), avail[s] - clock
// + 1 clamped at 0. An entry stores the clock advance, the exit issue
// slot and each written slot's avail relative to the entry clock.

const (
	// maxRegion bounds a region's length, so its category counts fit
	// in bytes.
	maxRegion = 255
	// maxLiveIn is how many live-in slots a memo key packs beside the
	// issue slot; a region with more is charged one instruction at a
	// time.
	maxLiveIn = 15
	noMemo    = 0xff // region.nin of such a region
	// memoWays is how many entry states each region remembers.
	memoWays = 4
)

// region describes one straight-line run of a program's code.
type region struct {
	cats  [NumCats]uint8 // executed instructions per category
	start int32          // first instruction
	ctl   int32          // the ending control transfer, or -1
	end   int32          // one past the last instruction (the delay slot, if any)
	slots uint32         // offset in issueTable.slots of nin live-ins, then nout written slots
	nin   uint8          // noMemo: the region is never memoized
	nout  uint8
}

// memoKey is a packed entry state: byte 0 is the issue slot, byte i
// the clamped avail of the region's i'th live-in slot.
type memoKey [2]uint64

// A memo entry is an immutable []uint64 of 3+nout words, published by
// a pointer to its first word: the key, then the clock advance shifted
// left 8 with the exit issue slot in the low byte, then each written
// slot's avail relative to the entry clock.
const memoHeader = 3

// plain reports whether in executes as a simple step: not a control
// transfer, a syscall, a breakpoint or a halt.
func plain(in *Inst, f *issueFact) bool {
	return f.bits&factCtl == 0 && in.Op != Syscall && in.Op != Break && in.Op != Halt
}

// buildRegions splits p's code into regions over the issue facts in t.
// Leaders are the entry point, direct branch targets, the OmniVM code
// addresses' native images, link addresses and the instruction after
// every non-plain one (after the slot, on the delay-slot machines);
// regions also end before a leader and at maxRegion instructions. A
// control transfer whose delay slot is missing or holds a transfer or
// a syscall ends no region: Run steps it one instruction at a time and
// reports the malformed slot.
func buildRegions(t *issueTable, p *Program) {
	code, facts, delay := p.Code, t.facts, t.delay
	n := int32(len(code))
	at := make([]int32, n) // 1 marks a leader until the scan replaces it
	mark := func(i int32) {
		if i >= 0 && i < n {
			at[i] = 1
		}
	}
	mark(0)
	mark(p.Entry)
	for _, v := range p.OmniToNative {
		mark(v)
	}
	for i := int32(0); i < n; i++ {
		in := &code[i]
		switch {
		case facts[i].bits&factCtl != 0:
			if in.Op != Jr && in.Op != Jalr {
				mark(in.Target)
			}
			if (in.Op == Jal || in.Op == Jalr) && p.OmniToNative == nil {
				mark(in.Imm)
			}
			if delay {
				mark(i + 2)
			} else {
				mark(i + 1)
			}
		case !plain(in, &facts[i]):
			mark(i + 1)
		}
	}

	// For the region numbered id (its index + 1): seen[s] == id once s
	// is one of its live-ins, wrote[s] == id once it writes s.
	var seen, wrote [numSlots]int32
	var outBuf [numSlots]uint8
	leaders := 0
	for _, v := range at {
		leaders += int(v)
	}
	t.regions = make([]region, 0, leaders+int(n)/maxRegion)
	for i := int32(0); i < n; i++ {
		if at[i] != 1 {
			at[i] = -1
			continue
		}
		j := i
		for j < n && j-i < maxRegion && plain(&code[j], &facts[j]) && (j == i || at[j] != 1) {
			j++
		}
		r := region{start: i, ctl: -1, end: j}
		if j == i+maxRegion && j < n {
			at[j] = 1
		} else if j < n && (j == i || at[j] != 1) && facts[j].bits&factCtl != 0 && j-i+2 <= maxRegion {
			switch {
			case !delay:
				r.ctl, r.end = j, j+1
			case j+1 < n && facts[j+1].bits&factCtl == 0 && code[j+1].Op != Syscall:
				r.ctl, r.end = j, j+2
			}
		}
		if r.end == i {
			at[i] = -1
			continue
		}

		id := int32(len(t.regions)) + 1
		r.slots = uint32(len(t.slots))
		outs := outBuf[:0]
		for k := r.start; k < r.end; k++ {
			r.cats[code[k].Cat]++
			f := &facts[k]
			reads := [4]uint8{f.src[0], f.src[1], f.src[2], noSlot}
			if f.bits&factAGI != 0 {
				reads[3] = f.agi
			}
			for _, s := range reads {
				if s != noSlot && wrote[s] != id && seen[s] != id {
					seen[s] = id
					t.slots = append(t.slots, s)
					r.nin++
				}
			}
			if wrote[f.dst] != id {
				wrote[f.dst] = id
				outs = append(outs, f.dst)
			}
		}
		if r.nin > maxLiveIn {
			t.slots = t.slots[:r.slots]
			r.nin = noMemo
		} else {
			t.slots = append(t.slots, outs...)
			r.nout = uint8(len(outs))
		}
		at[i] = int32(len(t.regions))
		t.regions = append(t.regions, r)
	}
	t.at = at
	t.memo = make([]unsafe.Pointer, memoWays*len(t.regions))

	t.bytes = int64(cap(t.facts))*int64(unsafe.Sizeof(issueFact{})) +
		int64(cap(t.at))*4 +
		int64(cap(t.regions))*int64(unsafe.Sizeof(region{})) +
		int64(cap(t.slots)) +
		int64(cap(t.memo))*int64(unsafe.Sizeof(unsafe.Pointer(nil)))
	for i := range t.regions {
		if r := &t.regions[i]; r.nin != noMemo {
			t.bytes += memoWays * ((8*(memoHeader+int64(r.nout)) + 15) &^ 15)
		}
	}
}

// charge adds region r's (index ri) pipeline cost to s's pipeline:
// from the memo when the entry state packs into a key, else by issuing
// each instruction; a miss issues each instruction and remembers the
// outcome.
func (s *Sim) charge(t *issueTable, ri int32, r *region) {
	p := &s.pipe
	if r.nin == noMemo {
		p.issueRange(t.facts[r.start:r.end])
		return
	}
	slots := t.slots[r.slots : r.slots+uint32(r.nin)+uint32(r.nout)]
	key := memoKey{uint64(p.slot)}
	for i, sl := range slots[:r.nin] {
		d := p.avail[sl] - p.clock + 1
		if int64(d) < 0 {
			continue // at or below clock - 1: packs as 0
		}
		if d > 255 {
			p.issueRange(t.facts[r.start:r.end])
			return
		}
		key[(i+1)/8] |= d << (8 * ((i + 1) % 8))
	}
	ways := t.memo[ri*memoWays : ri*memoWays+memoWays]
	outs := slots[r.nin:]
	c0 := p.clock
	for w := range ways {
		ptr := atomic.LoadPointer(&ways[w])
		if ptr == nil {
			continue
		}
		e := unsafe.Slice((*uint64)(ptr), memoHeader+len(outs))
		if e[0] != key[0] || e[1] != key[1] {
			continue
		}
		p.clock = c0 + e[2]>>8
		p.slot = int(e[2] & 0xff)
		for i, sl := range outs {
			p.avail[sl] = c0 + e[memoHeader+i]
		}
		return
	}

	p.issueRange(t.facts[r.start:r.end])
	e := make([]uint64, memoHeader+len(outs))
	e[0], e[1] = key[0], key[1]
	e[2] = (p.clock-c0)<<8 | uint64(p.slot)
	for i, sl := range outs {
		e[memoHeader+i] = p.avail[sl] - c0
	}
	// Fill an empty way, else replace one picked by hashing the key
	// with the entry clock: a victim fixed by the key alone lets two
	// hot states of a region with more states than ways evict each
	// other forever. A concurrent run may replace the same way; either
	// entry is exact.
	w := int((key[0]^key[1]^c0)*0x9e3779b97f4a7c15>>32) % memoWays
	for i := range ways {
		if atomic.LoadPointer(&ways[i]) == nil {
			w = i
			break
		}
	}
	atomic.StorePointer(&ways[w], unsafe.Pointer(&e[0]))
}

// issueRange issues facts in order.
func (p *pipe) issueRange(facts []issueFact) {
	for i := range facts {
		p.issue(&facts[i])
	}
}
