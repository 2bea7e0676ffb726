// Package mem provides the sparse, paged data memory that backs both the
// functional emulator (architectural state) and the cycle-level pipeline
// (committed state updated at retirement).
package mem

import "encoding/binary"

// PageSize is the granularity of backing allocation.
const PageSize = 4096

type page [PageSize]byte

// pageRef is one page of a Memory's page table. owned means no other Memory
// holds the page, so it is written in place; a page shared with a clone is
// copied by whichever of the two writes it first.
type pageRef struct {
	p     *page
	owned bool
}

// Memory is a sparse 64-bit byte-addressable memory. The zero value is not
// usable; call New. Unwritten bytes read as zero.
//
// A Memory has one user at a time: the engines own their memories for the
// length of a run, and every access, reads included, updates the internal
// last-page cache. Clone is the exception. A clone shares every page with
// its source, and the first write to a shared page, by either side, copies
// that page, so cloning costs one page-table entry per page. Clone writes
// to its source only to give up the source's ownership of its pages; a
// Memory that owns no page (any clone, until it is written) is only read
// by Clone, so goroutines may clone one such image concurrently, as long as
// none of them reads or writes it otherwise.
type Memory struct {
	pages map[uint64]pageRef
	owns  bool // some page is owned

	// Last-page cache: simulated accesses are heavily page-local, so one
	// remembered (page number, page) pair turns most lookups into a
	// compare. lastPage == nil means the cache is empty (never that the
	// page is absent); lastOwned means lastPage may be written in place.
	lastPN    uint64
	lastPage  *page
	lastOwned bool
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint64]pageRef)} }

// readPage returns addr's page for reading, or nil when it was never
// written.
func (m *Memory) readPage(addr uint64) *page {
	pn := addr / PageSize
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	r, ok := m.pages[pn]
	if !ok {
		return nil
	}
	m.lastPN, m.lastPage, m.lastOwned = pn, r.p, r.owned
	return r.p
}

// writePage returns addr's page for writing: allocated when absent, and
// copied first when it is shared.
func (m *Memory) writePage(addr uint64) *page {
	pn := addr / PageSize
	if m.lastOwned && m.lastPN == pn {
		return m.lastPage
	}
	r := m.pages[pn]
	if !r.owned {
		p := new(page)
		if r.p != nil {
			*p = *r.p
		}
		r = pageRef{p: p, owned: true}
		m.pages[pn] = r
		m.owns = true
	}
	m.lastPN, m.lastPage, m.lastOwned = pn, r.p, true
	return r.p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.writePage(addr)[addr%PageSize] = b
}

// Read returns size bytes (1, 2, 4, or 8) at addr as a little-endian,
// zero-extended value. Accesses may cross page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		p := m.readPage(addr)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
	}
	// Page-crossing (or unusual size): byte path.
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes (1, 2, 4, or 8) of val at addr,
// little-endian.
func (m *Memory) Write(addr uint64, size int, val uint64) {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		p := m.writePage(addr)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 1:
			p[off] = byte(val)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// LoadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) LoadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.readPage(addr); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// StoreBytes copies src into memory starting at addr.
func (m *Memory) StoreBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.writePage(addr)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// WriteUint64s stores a slice of 64-bit values contiguously at addr and
// returns the address one past the end.
func (m *Memory) WriteUint64s(addr uint64, vals []uint64) uint64 {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		m.StoreBytes(addr, buf[:])
		addr += 8
	}
	return addr
}

// Clone returns a copy of the memory that shares every page with m until
// one side writes it. Cloning a Memory that owns no page writes nothing to
// it.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]pageRef, len(m.pages))}
	for pn, r := range m.pages {
		c.pages[pn] = pageRef{p: r.p}
	}
	if m.owns {
		for pn, r := range m.pages {
			if r.owned {
				m.pages[pn] = pageRef{p: r.p}
			}
		}
		m.owns, m.lastOwned = false, false
	}
	return c
}

// Equal reports whether two memories hold identical contents (treating
// absent pages as zero-filled). Pages the two share are equal without a
// compare.
func (m *Memory) Equal(o *Memory) bool {
	for pn, r := range m.pages {
		q, ok := o.pages[pn]
		switch {
		case !ok:
			if *r.p != (page{}) {
				return false
			}
		case q.p != r.p && *q.p != *r.p:
			return false
		}
	}
	for pn, q := range o.pages {
		if _, ok := m.pages[pn]; !ok && *q.p != (page{}) {
			return false
		}
	}
	return true
}

// Checksum returns an order-independent-free (deterministic, order-defined)
// FNV-1a hash over all nonzero pages; useful for workload output
// verification.
func (m *Memory) Checksum() uint64 {
	// Hash pages in ascending page-number order for determinism.
	var pns []uint64
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	// insertion sort (page counts are small)
	for i := 1; i < len(pns); i++ {
		for j := i; j > 0 && pns[j] < pns[j-1]; j-- {
			pns[j], pns[j-1] = pns[j-1], pns[j]
		}
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, pn := range pns {
		p := m.pages[pn].p
		if *p == (page{}) {
			continue
		}
		for i := 0; i < 8; i++ {
			h ^= pn >> (8 * i) & 0xff
			h *= prime
		}
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}
