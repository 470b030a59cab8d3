// Package mem provides the memory substrate of the simulated machine: a
// sparse paged byte-addressable memory for functional state, and a
// set-associative cache model (private split L1s plus a shared L2) for
// timing, matching the configuration evaluated in the paper: "single-CPI
// in-order cores with 16KB private split L1 caches and a 512KB shared L2
// cache".
package mem

import (
	"encoding/binary"
	"fmt"
)

// pageBits selects the sparse-page granule (4 KiB, like a real page).
const pageBits = 12

const pageSize = 1 << pageBits

type page [pageSize]byte

// pageChunk caps how many pages one allocation provides.
const pageChunk = 16

// The page directory covers addresses below dirLimit (2 GiB, above
// isa.StackTop, so every application region) in two levels: a fixed
// array of dirSize leaves, each mapping leafSize consecutive pages
// (4 MiB). Pages at or above dirLimit live in a map.
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirSize  = 512
	dirLimit = dirSize << (leafBits + pageBits)
)

type leaf [leafSize]*page

// Memory is a sparse, byte-addressable 64-bit memory. Pages materialise on
// first touch and read as zero before any write, like anonymous mappings.
// Memory holds functional state only; timing lives in the cache model.
type Memory struct {
	dir   [dirSize]*leaf
	far   map[uint64]*page // pages at or above dirLimit, by page number
	count int              // materialised pages
	spare []page           // allocated but not yet materialised pages (see newPage)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// lookup returns the page holding addr, or nil if it was never touched.
// It never writes, so a Memory shared by concurrent readers is safe.
func (m *Memory) lookup(addr uint64) *page {
	if addr < dirLimit {
		if l := m.dir[addr>>(leafBits+pageBits)]; l != nil {
			return l[addr>>pageBits&(leafSize-1)]
		}
		return nil
	}
	return m.far[addr>>pageBits]
}

// page returns the page holding addr, materialising it on first touch.
// Reads never call it: they look the page up and treat an absent one as
// zeros.
func (m *Memory) page(addr uint64) *page {
	if addr < dirLimit {
		if l := m.dir[addr>>(leafBits+pageBits)]; l != nil {
			if p := l[addr>>pageBits&(leafSize-1)]; p != nil {
				return p
			}
		}
	}
	return m.materialise(addr)
}

// materialise is page's slow path: a directory page not yet touched, or
// any page at or above dirLimit.
func (m *Memory) materialise(addr uint64) *page {
	if addr >= dirLimit {
		p := m.far[addr>>pageBits]
		if p == nil {
			if m.far == nil {
				m.far = make(map[uint64]*page)
			}
			p = m.newPage()
			m.far[addr>>pageBits] = p
		}
		return p
	}
	l := &m.dir[addr>>(leafBits+pageBits)]
	if *l == nil {
		*l = new(leaf)
	}
	p := m.newPage()
	(*l)[addr>>pageBits&(leafSize-1)] = p
	return p
}

// newPage hands out one zeroed page. Pages are allocated in chunks that
// grow with the footprint up to pageChunk, so a large working set costs
// one allocation per chunk while a small one wastes at most as many
// pages as it uses.
func (m *Memory) newPage() *page {
	if len(m.spare) == 0 {
		m.spare = make([]page, min(m.count+1, pageChunk))
	}
	p := &m.spare[0]
	m.spare = m.spare[1:]
	m.count++
	return p
}

// Byte reads one byte.
func (m *Memory) Byte(addr uint64) byte {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr)[addr&(pageSize-1)] = v
}

// Read reads size bytes (1, 2, 4 or 8) little-endian, zero-extended.
// Accesses may straddle page boundaries; each costs one page lookup per
// page touched.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		p := m.lookup(addr)
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
	var b [8]byte
	m.ReadBytes(addr, b[:min(size, 8)])
	return binary.LittleEndian.Uint64(b[:])
}

// Write writes the low size bytes (1, 2, 4 or 8) of v little-endian.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(m.page(addr)[off:], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(m.page(addr)[off:], uint32(v))
			return
		case 2:
			binary.LittleEndian.PutUint16(m.page(addr)[off:], uint16(v))
			return
		case 1:
			m.page(addr)[off] = byte(v)
			return
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:min(size, 8)])
}

// ReadBytes copies len(dst) bytes starting at addr into dst, one page
// lookup per page touched. Absent pages read as zero and stay absent.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(uint64(len(dst)), pageSize-off)
		if p := m.lookup(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr, one page lookup per
// page touched.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.page(addr)[addr&(pageSize-1):], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Fill sets the n bytes starting at addr to v, one page lookup per page
// touched. Every page in the range materialises, even when v is zero.
func (m *Memory) Fill(addr, n uint64, v byte) {
	for n > 0 {
		off := addr & (pageSize - 1)
		k := min(n, pageSize-off)
		s := m.page(addr)[off : off+k]
		for i := range s {
			s[i] = v
		}
		addr += k
		n -= k
	}
}

// PageCount reports how many 4 KiB pages have been materialised; used by
// tests and by the workload generators to check working-set sizes.
func (m *Memory) PageCount() int { return m.count }

// Footprint returns the materialised memory footprint in bytes.
func (m *Memory) Footprint() uint64 { return uint64(m.count) * pageSize }

// String summarises the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{pages: %d, footprint: %d KiB}", m.count, m.Footprint()/1024)
}
