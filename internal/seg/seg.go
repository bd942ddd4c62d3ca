// Package seg implements the OmniVM segmented virtual memory model: an
// address space shared by mutually distrustful modules and the host,
// divided into segments with host-imposed read/write/execute permissions
// at page granularity. Unauthorized accesses produce Faults, which the
// runtime delivers to the module as access-violation exceptions.
package seg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PageSize is the protection granularity within a segment.
const PageSize = 4096

// Perm is a permission bit set.
type Perm uint8

const (
	Read  Perm = 1 << iota
	Write      // store permission
	Exec       // instruction fetch / indirect branch target permission
)

func (p Perm) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access distinguishes the operation that caused a fault.
type Access uint8

const (
	AccLoad Access = iota
	AccStore
	AccFetch
)

func (a Access) String() string {
	switch a {
	case AccLoad:
		return "load"
	case AccStore:
		return "store"
	case AccFetch:
		return "fetch"
	}
	return "access"
}

// FaultKind classifies memory faults.
type FaultKind uint8

const (
	FaultUnmapped  FaultKind = iota // no segment covers the address
	FaultProt                       // segment exists but permission denied
	FaultUnaligned                  // address not aligned to access size
)

// Fault describes a failed memory access. It implements error.
type Fault struct {
	Kind FaultKind
	Acc  Access
	Addr uint32
	Size int
}

func (f *Fault) Error() string {
	var k string
	switch f.Kind {
	case FaultUnmapped:
		k = "unmapped address"
	case FaultProt:
		k = "access violation"
	case FaultUnaligned:
		k = "unaligned access"
	}
	return fmt.Sprintf("seg: %s: %d-byte %s at %#x", k, f.Size, f.Acc, f.Addr)
}

// Segment is a contiguous region of the address space.
type Segment struct {
	Name  string
	Base  uint32
	data  []byte
	perms []Perm // one per page

	// dirty, when non-nil, tracks pages written since the last Recycle
	// (one bit per page). Reusable segments carry it so Recycle can
	// restore the all-zero guarantee by clearing only the pages a run
	// actually touched instead of the whole (multi-megabyte) segment.
	// Ordinary segments leave it nil and pay nothing beyond the check.
	dirty []uint64
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint32 { return uint32(len(s.data)) }

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Base + s.Size() }

// Bytes exposes the backing store (host-side access, not permission
// checked; the host owns the address space). A writer mutating a
// reusable segment through this escape hatch must report the range
// with MarkDirty, or Recycle cannot restore the zero guarantee.
func (s *Segment) Bytes() []byte { return s.data }

// MarkDirty records that [off, off+n) was written outside the
// permission-checked store path. No-op on ordinary segments.
func (s *Segment) MarkDirty(off, n uint32) {
	if s.dirty == nil || n == 0 {
		return
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		s.dirty[p/64] |= 1 << (p % 64)
	}
}

// NewPooledSegment creates an unattached, dirty-tracked segment for
// reuse across address spaces (the serving layer's host pool). The
// returned segment is pristine: all-zero data, uniform perms.
func NewPooledSegment(name string, base, size uint32, perms Perm) (*Segment, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("seg: pooled segment %q size %#x not a page multiple", name, size)
	}
	if base%PageSize != 0 {
		return nil, fmt.Errorf("seg: pooled segment %q base %#x not page aligned", name, base)
	}
	pages := size / PageSize
	s := &Segment{
		Name:  name,
		Base:  base,
		data:  make([]byte, size),
		perms: make([]Perm, pages),
		dirty: make([]uint64, (pages+63)/64),
	}
	fillPerms(s.perms, perms)
	return s, nil
}

// Recycle restores a dirty-tracked segment to pristine state under a
// possibly new identity: every page written since the last Recycle
// (or creation) is zeroed, permissions are reset uniformly, and the
// name/base are updated. The segment must not be attached to any
// Memory when recycled. Allocation-free.
func (s *Segment) Recycle(name string, base uint32, perms Perm) {
	for w, word := range s.dirty {
		for word != 0 {
			p := uint32(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			clear(s.data[p*PageSize : (p+1)*PageSize])
		}
		s.dirty[w] = 0
	}
	fillPerms(s.perms, perms)
	s.Name, s.Base = name, base
}

// fillPerms sets every element of pp to p, doubling the filled prefix
// with copy: Recycle resets a multi-megabyte segment's page table on
// every pooled run, and block copies beat a byte-at-a-time loop.
func fillPerms(pp []Perm, p Perm) {
	if len(pp) == 0 {
		return
	}
	pp[0] = p
	for n := 1; n < len(pp); n *= 2 {
		copy(pp[n:], pp[:n])
	}
}

// Memory is a segmented address space. The zero value is empty; add
// segments with Map. A Memory belongs to one goroutine at a time:
// even loads fill its TLB.
type Memory struct {
	segs []*Segment // sorted by Base
	tlb  [tlbEntries]tlbEntry
}

// tlbEntries is the size of a Memory's direct-mapped page TLB.
const tlbEntries = 64

// tlbEntry caches one page an access has been fully checked against:
// the page's backing bytes and the accesses it admits without another
// check. A load fill admits loads only; a store fill, made after the
// store marked the page dirty, admits stores (and loads, if the page
// is readable), so a TLB hit never skips dirty tracking. Every change
// to the mapping or to page permissions empties the TLB.
type tlbEntry struct {
	base  uint32 // the page's address
	perms Perm   // 0 in an empty entry
	data  *[PageSize]byte
}

// flush empties the TLB.
func (m *Memory) flush() { m.tlb = [tlbEntries]tlbEntry{} }

// Map creates a segment of size bytes at base with uniform perms.
// Size is rounded up to a page multiple. Overlapping an existing
// segment is an error.
func (m *Memory) Map(name string, base, size uint32, perms Perm) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("seg: zero-size segment %q", name)
	}
	if base%PageSize != 0 {
		return nil, fmt.Errorf("seg: segment %q base %#x not page aligned", name, base)
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if base+size < base {
		return nil, fmt.Errorf("seg: segment %q wraps the address space", name)
	}
	for _, s := range m.segs {
		if base < s.End() && s.Base < base+size {
			return nil, fmt.Errorf("seg: segment %q [%#x,%#x) overlaps %q", name, base, base+size, s.Name)
		}
	}
	pp := make([]Perm, size/PageSize)
	fillPerms(pp, perms)
	s := &Segment{Name: name, Base: base, data: make([]byte, size), perms: pp}
	m.insert(s)
	return s, nil
}

// insert places s into the base-sorted segment list (the caller has
// already checked overlap). Allocation-free once the list's capacity
// has grown to its working size.
func (m *Memory) insert(s *Segment) {
	i := len(m.segs)
	for i > 0 && m.segs[i-1].Base > s.Base {
		i--
	}
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = s
	m.flush()
}

// Attach maps an existing (typically pooled) segment into this
// address space, with the same overlap discipline as Map.
func (m *Memory) Attach(s *Segment) error {
	if s.Base%PageSize != 0 {
		return fmt.Errorf("seg: attach %q: base %#x not page aligned", s.Name, s.Base)
	}
	if s.Base+s.Size() < s.Base {
		return fmt.Errorf("seg: attach %q: segment wraps the address space", s.Name)
	}
	for _, o := range m.segs {
		if s.Base < o.End() && o.Base < s.Base+s.Size() {
			return fmt.Errorf("seg: attach %q [%#x,%#x) overlaps %q", s.Name, s.Base, s.Base+s.Size(), o.Name)
		}
	}
	m.insert(s)
	return nil
}

// Reset detaches every segment, leaving an empty address space. The
// segments themselves (and their contents) are untouched — this is
// the reuse path's "tear down the mapping, keep the backing store".
func (m *Memory) Reset() {
	for i := range m.segs {
		m.segs[i] = nil
	}
	m.segs = m.segs[:0]
	m.flush()
}

// Unmap removes the segment at base.
func (m *Memory) Unmap(base uint32) error {
	for i, s := range m.segs {
		if s.Base == base {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			m.flush()
			return nil
		}
	}
	return fmt.Errorf("seg: no segment at %#x", base)
}

// Segments returns the mapped segments in address order.
func (m *Memory) Segments() []*Segment { return m.segs }

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr uint32) *Segment {
	// Binary search over sorted bases.
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.segs[mid].Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	s := m.segs[lo-1]
	if addr < s.End() {
		return s
	}
	return nil
}

// Protect changes permissions on the pages covering [addr, addr+size).
// The range must lie within one segment and be page aligned; this is the
// host API behind the paper's "host-imposed permissions on access to
// this address space".
func (m *Memory) Protect(addr, size uint32, perms Perm) error {
	s := m.Find(addr)
	if s == nil {
		return fmt.Errorf("seg: protect: no segment at %#x", addr)
	}
	if addr%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("seg: protect: range [%#x,+%#x) not page aligned", addr, size)
	}
	if addr+size > s.End() || addr+size < addr {
		return fmt.Errorf("seg: protect: range [%#x,+%#x) exceeds segment %q", addr, size, s.Name)
	}
	first := (addr - s.Base) / PageSize
	for i := uint32(0); i < size/PageSize; i++ {
		s.perms[first+i] = perms
	}
	m.flush()
	return nil
}

// PermsAt returns the permissions of the page containing addr (0 if
// unmapped).
func (m *Memory) PermsAt(addr uint32) Perm {
	s := m.Find(addr)
	if s == nil {
		return 0
	}
	return s.perms[(addr-s.Base)/PageSize]
}

// check validates an access and returns the segment and intra-segment
// offset. size is a power of two (1, 2, 4 or 8).
func (m *Memory) check(addr uint32, size int, acc Access) (*Segment, uint32, *Fault) {
	if addr&uint32(size-1) != 0 {
		return nil, 0, &Fault{Kind: FaultUnaligned, Acc: acc, Addr: addr, Size: size}
	}
	s := m.Find(addr)
	if s == nil || addr+uint32(size) > s.End() {
		return nil, 0, &Fault{Kind: FaultUnmapped, Acc: acc, Addr: addr, Size: size}
	}
	var need Perm
	switch acc {
	case AccLoad:
		need = Read
	case AccStore:
		need = Write
	case AccFetch:
		need = Exec
	}
	// An access that straddles a page boundary needs permission on both
	// pages; with power-of-two sizes and alignment enforced above, an
	// access never straddles, so one page check suffices.
	page := (addr - s.Base) / PageSize
	if s.perms[page]&need == 0 {
		return nil, 0, &Fault{Kind: FaultProt, Acc: acc, Addr: addr, Size: size}
	}
	if acc == AccStore && s.dirty != nil {
		s.dirty[page/64] |= 1 << (page % 64)
	}
	return s, addr - s.Base, nil
}

// hit returns the backing bytes of the page addr lies in if the TLB
// admits a load (need = Read) or store (need = Write) of size bytes
// there, else nil.
func (m *Memory) hit(addr uint32, size int, need Perm) *[PageSize]byte {
	// One compare tests the page and the alignment: the mask keeps
	// the page bits and the bits a misaligned address sets.
	if e := &m.tlb[addr/PageSize%tlbEntries]; addr&(^uint32(PageSize-1)|uint32(size-1)) == e.base && e.perms&need != 0 {
		return e.data
	}
	return nil
}

// fill checks an access the TLB did not admit, reporting any fault
// exactly as an uncached access would, and on success caches the page.
func (m *Memory) fill(addr uint32, size int, need Perm) (*[PageSize]byte, *Fault) {
	acc := AccLoad
	if need == Write {
		acc = AccStore
	}
	s, off, f := m.check(addr, size, acc)
	if f != nil {
		return nil, f
	}
	off &^= PageSize - 1
	data := (*[PageSize]byte)(s.data[off : off+PageSize])
	admit := need
	if need == Write {
		admit |= s.perms[off/PageSize] & Read
	}
	m.tlb[addr/PageSize%tlbEntries] = tlbEntry{base: addr &^ (PageSize - 1), perms: admit, data: data}
	return data, nil
}

// LoadU8 loads a byte.
func (m *Memory) LoadU8(addr uint32) (uint8, *Fault) {
	p := m.hit(addr, 1, Read)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 1, Read); f != nil {
			return 0, f
		}
	}
	return p[addr%PageSize], nil
}

// LoadU16 loads a little-endian halfword.
func (m *Memory) LoadU16(addr uint32) (uint16, *Fault) {
	p := m.hit(addr, 2, Read)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 2, Read); f != nil {
			return 0, f
		}
	}
	return binary.LittleEndian.Uint16(p[addr%PageSize:]), nil
}

// LoadU32 loads a little-endian word.
func (m *Memory) LoadU32(addr uint32) (uint32, *Fault) {
	p := m.hit(addr, 4, Read)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 4, Read); f != nil {
			return 0, f
		}
	}
	return binary.LittleEndian.Uint32(p[addr%PageSize:]), nil
}

// LoadU64 loads a little-endian doubleword.
func (m *Memory) LoadU64(addr uint32) (uint64, *Fault) {
	p := m.hit(addr, 8, Read)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 8, Read); f != nil {
			return 0, f
		}
	}
	return binary.LittleEndian.Uint64(p[addr%PageSize:]), nil
}

// StoreU8 stores a byte.
func (m *Memory) StoreU8(addr uint32, v uint8) *Fault {
	p := m.hit(addr, 1, Write)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 1, Write); f != nil {
			return f
		}
	}
	p[addr%PageSize] = v
	return nil
}

// StoreU16 stores a little-endian halfword.
func (m *Memory) StoreU16(addr uint32, v uint16) *Fault {
	p := m.hit(addr, 2, Write)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 2, Write); f != nil {
			return f
		}
	}
	binary.LittleEndian.PutUint16(p[addr%PageSize:], v)
	return nil
}

// StoreU32 stores a little-endian word.
func (m *Memory) StoreU32(addr uint32, v uint32) *Fault {
	p := m.hit(addr, 4, Write)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 4, Write); f != nil {
			return f
		}
	}
	binary.LittleEndian.PutUint32(p[addr%PageSize:], v)
	return nil
}

// StoreU64 stores a little-endian doubleword.
func (m *Memory) StoreU64(addr uint32, v uint64) *Fault {
	p := m.hit(addr, 8, Write)
	if p == nil {
		var f *Fault
		if p, f = m.fill(addr, 8, Write); f != nil {
			return f
		}
	}
	binary.LittleEndian.PutUint64(p[addr%PageSize:], v)
	return nil
}

// CheckFetch validates that addr may be used as a code target (used by
// the indirect-branch path of interpreters; translated code uses SFI
// sandboxing instead).
func (m *Memory) CheckFetch(addr uint32) *Fault {
	_, _, f := m.check(addr, 1, AccFetch)
	return f
}

// ReadBytes copies n bytes starting at addr, honoring read permission.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, f := m.LoadU8(addr + uint32(i))
		if f != nil {
			return nil, f
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes stores b starting at addr, honoring write permission.
func (m *Memory) WriteBytes(addr uint32, b []byte) *Fault {
	for i, v := range b {
		if f := m.StoreU8(addr+uint32(i), v); f != nil {
			return f
		}
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint32, max int) (string, *Fault) {
	var out []byte
	for i := 0; i < max; i++ {
		b, f := m.LoadU8(addr + uint32(i))
		if f != nil {
			return "", f
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}
