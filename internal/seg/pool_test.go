package seg

import "testing"

// Recycle must restore the pristine all-zero guarantee for every write
// path: permission-checked stores (tracked in check), and host-side
// Bytes() writes reported via MarkDirty.
func TestPooledSegmentRecycle(t *testing.T) {
	s, err := NewPooledSegment("pool", 0x10000, 4*PageSize, Read|Write)
	if err != nil {
		t.Fatal(err)
	}

	var m Memory
	if err := m.Attach(s); err != nil {
		t.Fatal(err)
	}
	// Checked store in page 1, Bytes write in page 3.
	if f := m.StoreU32(0x10000+PageSize+8, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	off := uint32(3*PageSize + 100)
	s.Bytes()[off] = 0xff
	s.MarkDirty(off, 1)
	// Drop a page's write permission, as the guard page does, to check
	// Recycle restores uniform perms.
	if err := m.Protect(0x10000+2*PageSize, PageSize, 0); err != nil {
		t.Fatal(err)
	}

	m.Reset()
	if len(m.Segments()) != 0 {
		t.Fatal("Reset left segments attached")
	}
	s.Recycle("pool", 0x20000, Read|Write)

	if s.Base != 0x20000 {
		t.Fatalf("base %#x after recycle", s.Base)
	}
	for i, b := range s.Bytes() {
		if b != 0 {
			t.Fatalf("byte %#x = %#x after recycle; scrub missed a dirty page", i, b)
		}
	}
	var m2 Memory
	if err := m2.Attach(s); err != nil {
		t.Fatal(err)
	}
	// The protected page must be writable again.
	if f := m2.StoreU32(0x20000+2*PageSize, 1); f != nil {
		t.Fatalf("perms not restored: %v", f)
	}
}

func TestPooledSegmentRejectsBadGeometry(t *testing.T) {
	if _, err := NewPooledSegment("p", 0, PageSize+1, Read); err == nil {
		t.Fatal("non-page-multiple size accepted")
	}
	if _, err := NewPooledSegment("p", 100, PageSize, Read); err == nil {
		t.Fatal("unaligned base accepted")
	}
}

func TestAttachRejectsOverlap(t *testing.T) {
	var m Memory
	if _, err := m.Map("a", 0x1000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	s, err := NewPooledSegment("b", 0x1000, PageSize, Read)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(s); err == nil {
		t.Fatal("overlapping attach accepted")
	}
}

func TestFillPerms(t *testing.T) {
	for n := 0; n <= 70; n++ {
		pp := make([]Perm, n)
		fillPerms(pp, Read|Exec)
		for i, p := range pp {
			if p != Read|Exec {
				t.Fatalf("len %d: perms[%d] = %v", n, i, p)
			}
		}
	}
}
