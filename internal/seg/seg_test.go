package seg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapAndAccess(t *testing.T) {
	var m Memory
	s, err := m.Map("data", 0x20000000, 8192, Read|Write)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 8192 {
		t.Fatalf("size %d", s.Size())
	}
	if f := m.StoreU32(0x20000000, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	v, f := m.LoadU32(0x20000000)
	if f != nil || v != 0xdeadbeef {
		t.Fatalf("load: %v %#x", f, v)
	}
	// Little-endian byte order is part of the OmniVM definition.
	b, _ := m.LoadU8(0x20000000)
	if b != 0xef {
		t.Fatalf("byte order: got %#x", b)
	}
}

func TestSizeRoundsToPage(t *testing.T) {
	var m Memory
	s, err := m.Map("d", 0x1000, 10, Read)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != PageSize {
		t.Fatalf("size %d, want %d", s.Size(), PageSize)
	}
}

func TestMapErrors(t *testing.T) {
	var m Memory
	if _, err := m.Map("a", 0x1001, 10, Read); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := m.Map("a", 0x1000, 0, Read); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := m.Map("a", 0x1000, 0x2000, Read); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("b", 0x2000, 0x1000, Read); err == nil {
		t.Error("overlap accepted")
	}
	if _, err := m.Map("c", 0xfffff000, 0x2000, Read); err == nil {
		t.Error("wrapping segment accepted")
	}
}

func TestUnmap(t *testing.T) {
	var m Memory
	if _, err := m.Map("a", 0x1000, 0x1000, Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, f := m.LoadU8(0x1000); f == nil {
		t.Error("access to unmapped segment succeeded")
	}
	if err := m.Unmap(0x1000); err == nil {
		t.Error("double unmap succeeded")
	}
}

func TestFaults(t *testing.T) {
	var m Memory
	if _, err := m.Map("ro", 0x1000, 0x1000, Read); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU32(0x1000, 1); f == nil || f.Kind != FaultProt || f.Acc != AccStore {
		t.Errorf("store to read-only: %v", f)
	}
	if _, f := m.LoadU32(0x5000); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("unmapped load: %v", f)
	}
	if _, f := m.LoadU32(0x1002); f == nil || f.Kind != FaultUnaligned {
		t.Errorf("unaligned load: %v", f)
	}
	// Straddling the segment end.
	if _, f := m.LoadU64(0x1ff8); f != nil {
		t.Errorf("last doubleword: %v", f)
	}
	if _, f := m.LoadU32(0x2000); f == nil {
		t.Error("access past end succeeded")
	}
	if f := m.CheckFetch(0x1000); f == nil || f.Kind != FaultProt {
		t.Errorf("fetch from non-exec: %v", f)
	}
	var fe *Fault
	fe = &Fault{Kind: FaultProt, Acc: AccStore, Addr: 0x1234, Size: 4}
	if fe.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestProtect(t *testing.T) {
	var m Memory
	if _, err := m.Map("d", 0x10000, 4*PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	// Write-protect the middle two pages (the paper's multi-page segment
	// write protection).
	if err := m.Protect(0x10000+PageSize, 2*PageSize, Read); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU8(0x10000, 1); f != nil {
		t.Errorf("page 0 should be writable: %v", f)
	}
	if f := m.StoreU8(0x10000+PageSize, 1); f == nil {
		t.Error("page 1 write should fault")
	}
	if f := m.StoreU8(0x10000+3*PageSize, 1); f != nil {
		t.Errorf("page 3 should be writable: %v", f)
	}
	if got := m.PermsAt(0x10000 + PageSize); got != Read {
		t.Errorf("PermsAt = %v", got)
	}
	if m.PermsAt(0xdead0000) != 0 {
		t.Error("unmapped PermsAt nonzero")
	}
	// Errors.
	if err := m.Protect(0x10000+1, PageSize, Read); err == nil {
		t.Error("unaligned protect accepted")
	}
	if err := m.Protect(0x10000, 64*PageSize, Read); err == nil {
		t.Error("oversize protect accepted")
	}
	if err := m.Protect(0x90000, PageSize, Read); err == nil {
		t.Error("protect of unmapped accepted")
	}
}

func TestFindBinarySearch(t *testing.T) {
	var m Memory
	bases := []uint32{0x1000, 0x5000, 0x9000, 0x20000, 0xA0000000}
	for _, b := range bases {
		if _, err := m.Map("s", b, PageSize, Read); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range bases {
		if s := m.Find(b); s == nil || s.Base != b {
			t.Errorf("Find(%#x) = %v", b, s)
		}
		if s := m.Find(b + PageSize - 1); s == nil || s.Base != b {
			t.Errorf("Find(end of %#x) = %v", b, s)
		}
		if s := m.Find(b + PageSize); s != nil && s.Base == b {
			t.Errorf("Find past end of %#x returned it", b)
		}
	}
	if m.Find(0) != nil {
		t.Error("Find(0) nonnil")
	}
	if len(m.Segments()) != len(bases) {
		t.Errorf("Segments: %d", len(m.Segments()))
	}
}

// tlbEmpty reports whether m's TLB holds no entries.
func tlbEmpty(m *Memory) bool {
	for _, e := range m.tlb {
		if e.perms != 0 {
			return false
		}
	}
	return true
}

// Every change to the mapping or to page permissions must empty the
// TLB; each case primes it with a load and a store first.
func TestTLBFlushedByEveryMappingChange(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(m *Memory) error
	}{
		{"Map", func(m *Memory) error { _, err := m.Map("b", 0x40000, PageSize, Read); return err }},
		{"Attach", func(m *Memory) error {
			p, err := NewPooledSegment("p", 0x50000, PageSize, Read|Write)
			if err != nil {
				return err
			}
			return m.Attach(p)
		}},
		{"Unmap", func(m *Memory) error { return m.Unmap(0x10000) }},
		{"Reset", func(m *Memory) error { m.Reset(); return nil }},
		{"Protect", func(m *Memory) error { return m.Protect(0x10000, PageSize, Read) }},
	} {
		var m Memory
		if _, err := m.Map("a", 0x10000, 2*PageSize, Read|Write); err != nil {
			t.Fatal(err)
		}
		if f := m.StoreU32(0x10000, 1); f != nil {
			t.Fatal(f)
		}
		if _, f := m.LoadU32(0x10000 + PageSize); f != nil {
			t.Fatal(f)
		}
		if tlbEmpty(&m) {
			t.Fatal("checked accesses left the TLB empty")
		}
		if err := c.change(&m); err != nil {
			t.Fatal(err)
		}
		if !tlbEmpty(&m) {
			t.Errorf("%s left TLB entries behind", c.name)
		}
	}
}

func TestTLBFollowsMapping(t *testing.T) {
	var m Memory
	if _, err := m.Map("a", 0x10000, PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU32(0x10004, 7); f != nil {
		t.Fatal(f)
	}
	// A store to a page Protect has just made read-only faults, though
	// the store before it cached the page as writable.
	if err := m.Protect(0x10000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU32(0x10004, 8); f == nil || f.Kind != FaultProt {
		t.Errorf("store to a freshly read-only page: %v, want a protection fault", f)
	}
	if v, f := m.LoadU32(0x10004); f != nil || v != 7 {
		t.Errorf("load after the refused store: %d, %v, want 7", v, f)
	}
	if err := m.Unmap(0x10000); err != nil {
		t.Fatal(err)
	}
	if _, f := m.LoadU32(0x10004); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("load after Unmap: %v, want an unmapped fault", f)
	}

	// A pooled segment detached by Reset and recycled at a new base:
	// the old base must fault, the new one must resolve to it.
	p, err := NewPooledSegment("p", 0x20000, PageSize, Read|Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(p); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU32(0x20008, 7); f != nil {
		t.Fatal(f)
	}
	m.Reset()
	if _, f := m.LoadU32(0x20008); f == nil {
		t.Error("load after Reset succeeded")
	}
	p.Recycle("p", 0x30000, Read)
	if err := m.Attach(p); err != nil {
		t.Fatal(err)
	}
	if _, f := m.LoadU32(0x20008); f == nil {
		t.Error("load at the recycled segment's old base succeeded")
	}
	if f := m.StoreU32(0x30008, 1); f == nil || f.Kind != FaultProt {
		t.Errorf("store to the recycled read-only segment: %v, want a protection fault", f)
	}

	// Pages tlbEntries pages apart share a TLB entry; each access must
	// still reach its own page.
	far := uint32(0x30000 + tlbEntries*PageSize)
	if _, err := m.Map("far", far, PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU32(far+8, 9); f != nil {
		t.Fatal(f)
	}
	if v, f := m.LoadU32(0x30008); f != nil || v != 0 {
		t.Errorf("load from p after far's store: %d, %v, want 0", v, f)
	}
	if v, f := m.LoadU32(far + 8); f != nil || v != 9 {
		t.Errorf("load from far: %d, %v, want 9", v, f)
	}
}

// A store must leave its page dirty whether or not the TLB already
// held the page, so Recycle zeroes it; a page cached by a load must not
// admit a store without a check.
func TestTLBStoresStayTracked(t *testing.T) {
	p, err := NewPooledSegment("p", 0x10000, 3*PageSize, Read|Write)
	if err != nil {
		t.Fatal(err)
	}
	var m Memory
	if err := m.Attach(p); err != nil {
		t.Fatal(err)
	}
	// Page 0: a store fills the TLB, a second store hits it.
	// Page 1: a load fills the TLB, then a store.
	// Page 2: read-only; a load fills the TLB, then a store must fault.
	if err := m.Protect(0x10000+2*PageSize, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fault{
		m.StoreU32(0x10000, 1),
		m.StoreU32(0x10000+100, 2),
		func() *Fault { _, f := m.LoadU32(0x10000 + PageSize); return f }(),
		m.StoreU8(0x10000+PageSize+5, 3),
		func() *Fault { _, f := m.LoadU32(0x10000 + 2*PageSize); return f }(),
	} {
		if f != nil {
			t.Fatal(f)
		}
	}
	if f := m.StoreU32(0x10000+2*PageSize, 4); f == nil || f.Kind != FaultProt {
		t.Errorf("store to a read-only page its load cached: %v, want a protection fault", f)
	}
	m.Reset()
	p.Recycle("p", 0x10000, Read|Write)
	for i, b := range p.Bytes() {
		if b != 0 {
			t.Fatalf("byte %#x is %#x after Recycle, want 0", i, b)
		}
	}
}

// Faults the TLB could mask: a misaligned access to a cached page and
// an access past the end of a cached segment.
func TestTLBKeepsFaultKinds(t *testing.T) {
	var m Memory
	if _, err := m.Map("a", 0x10000, PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreU64(0x10008, 1); f != nil {
		t.Fatal(f)
	}
	if _, f := m.LoadU64(0x10008); f != nil {
		t.Fatal(f)
	}
	for _, c := range []struct {
		what string
		f    *Fault
		kind FaultKind
	}{
		{"unaligned u16 load", func() *Fault { _, f := m.LoadU16(0x10009); return f }(), FaultUnaligned},
		{"unaligned u32 load", func() *Fault { _, f := m.LoadU32(0x1000a); return f }(), FaultUnaligned},
		{"unaligned u64 load", func() *Fault { _, f := m.LoadU64(0x1000c); return f }(), FaultUnaligned},
		{"unaligned u16 store", m.StoreU16(0x10009, 1), FaultUnaligned},
		{"unaligned u32 store", m.StoreU32(0x1000a, 1), FaultUnaligned},
		{"unaligned u64 store", m.StoreU64(0x1000c, 1), FaultUnaligned},
		{"load past the end", func() *Fault { _, f := m.LoadU32(0x10000 + PageSize); return f }(), FaultUnmapped},
		{"store below the base", m.StoreU32(0x10000-4, 1), FaultUnmapped},
	} {
		if c.f == nil || c.f.Kind != c.kind {
			t.Errorf("%s: %v, want kind %d", c.what, c.f, c.kind)
		}
	}
}

// Property: a store followed by a load of the same size at the same
// address returns the stored value, independent of where in a writable
// segment it lands.
func TestStoreLoadRoundTrip(t *testing.T) {
	var m Memory
	const base = 0x40000
	if _, err := m.Map("d", base, 16*PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 << r.Intn(4) // 1,2,4,8
		off := uint32(r.Intn(16*PageSize-8)) &^ uint32(size-1)
		addr := base + off
		switch size {
		case 1:
			v := uint8(r.Uint32())
			if f := m.StoreU8(addr, v); f != nil {
				return false
			}
			got, f := m.LoadU8(addr)
			return f == nil && got == v
		case 2:
			v := uint16(r.Uint32())
			if f := m.StoreU16(addr, v); f != nil {
				return false
			}
			got, f := m.LoadU16(addr)
			return f == nil && got == v
		case 4:
			v := r.Uint32()
			if f := m.StoreU32(addr, v); f != nil {
				return false
			}
			got, f := m.LoadU32(addr)
			return f == nil && got == v
		default:
			v := r.Uint64()
			if f := m.StoreU64(addr, v); f != nil {
				return false
			}
			got, f := m.LoadU64(addr)
			return f == nil && got == v
		}
	}
	// Pinned generator seed: quick's default Rand is time-seeded, and a
	// reproducible failure beats marginal extra coverage.
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	var m Memory
	if _, err := m.Map("d", 0x1000, PageSize, Read|Write); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteBytes(0x1000, []byte("hello\x00")); f != nil {
		t.Fatal(f)
	}
	s, f := m.ReadCString(0x1000, 64)
	if f != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, f)
	}
	b, f := m.ReadBytes(0x1000, 5)
	if f != nil || string(b) != "hello" {
		t.Fatalf("ReadBytes = %q, %v", b, f)
	}
	if _, f := m.ReadBytes(0x1000+PageSize-2, 5); f == nil {
		t.Error("ReadBytes past segment succeeded")
	}
	if Perm(Read|Write).String() != "rw-" {
		t.Error("perm string")
	}
}
