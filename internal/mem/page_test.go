package mem

import (
	"math/rand"
	"sync"
	"testing"
)

// byteMemory is the specification of Memory: a map from address to byte,
// one entry per byte written, with the set of pages a write touches.
type byteMemory struct {
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newByteMemory() *byteMemory {
	return &byteMemory{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
}

func (r *byteMemory) set(addr uint64, v byte) {
	r.bytes[addr] = v
	r.pages[addr>>pageBits] = true
}

func (r *byteMemory) read(addr uint64, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(r.bytes[addr+uint64(i)]) << (8 * i)
	}
	return v
}

// randomAddr draws an address near a boundary, so that about half of all
// accesses straddle two pages: page boundaries low in memory, address 0,
// the page directory's leaf boundaries (every 4 MiB), its end at dirLimit
// where pages move to the map, and a far region as shadow addresses use.
func randomAddr(rng *rand.Rand) uint64 {
	var boundary uint64
	switch rng.Intn(8) {
	case 0:
		return uint64(rng.Intn(32))
	case 1:
		boundary = uint64(1+rng.Intn(3)) << (leafBits + pageBits)
	case 2:
		boundary = dirLimit
	case 3:
		boundary = 1<<40 + uint64(1+rng.Intn(4))<<pageBits
	default:
		boundary = uint64(1+rng.Intn(4)) << pageBits
	}
	return boundary - 16 + uint64(rng.Intn(32))
}

func TestMemoryPageAccessesMatchByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, ref := NewMemory(), newByteMemory()
	sizes := []uint8{1, 2, 4, 8}
	for op := 0; op < 50_000; op++ {
		addr := randomAddr(rng)
		switch rng.Intn(6) {
		case 0:
			size := sizes[rng.Intn(4)]
			v := rng.Uint64()
			m.Write(addr, size, v)
			for i := uint8(0); i < size; i++ {
				ref.set(addr+uint64(i), byte(v>>(8*i)))
			}
		case 1:
			src := make([]byte, rng.Intn(40))
			rng.Read(src)
			m.WriteBytes(addr, src)
			for i, b := range src {
				ref.set(addr+uint64(i), b)
			}
		case 2:
			n, v := uint64(rng.Intn(40)), byte(rng.Intn(3)) // zero fills too
			m.Fill(addr, n, v)
			for i := uint64(0); i < n; i++ {
				ref.set(addr+i, v)
			}
		case 3:
			dst := make([]byte, rng.Intn(40))
			rng.Read(dst) // stale contents must be overwritten, zeros included
			m.ReadBytes(addr, dst)
			for i, b := range dst {
				if want := ref.bytes[addr+uint64(i)]; b != want {
					t.Fatalf("op %d: ReadBytes(%#x)[%d] = %#x, want %#x", op, addr, i, b, want)
				}
			}
		default:
			size := sizes[rng.Intn(4)]
			if got, want := m.Read(addr, size), ref.read(addr, size); got != want {
				t.Fatalf("op %d: Read(%#x, %d) = %#x, want %#x", op, addr, size, got, want)
			}
		}
		if m.PageCount() != len(ref.pages) {
			t.Fatalf("op %d: %d pages materialised, reference touched %d", op, m.PageCount(), len(ref.pages))
		}
	}
}

// bases are where the absent-read and concurrent-reader tests place
// their pages: low memory, a leaf boundary of the page directory, the
// directory's end (the pages straddle into the map) and far memory.
var bases = []uint64{0, 3 << (leafBits + pageBits), dirLimit - 2*pageSize, 1 << 40}

func TestMemoryPageAbsentReadsStayAbsent(t *testing.T) {
	for _, base := range bases {
		m := NewMemory()
		m.Write(base+pageSize-4, 4, 0xAABBCCDD) // the last word of the base page only
		pages := m.PageCount()
		dst := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for _, off := range []uint64{pageSize - 4, pageSize - 1, pageSize, 7 * pageSize, 1 << 40} {
			addr := base + off
			for _, size := range []uint8{1, 2, 4, 8} {
				want := uint64(0)
				if off < pageSize {
					want = uint64(0xAABBCCDD) >> (8 * (off - (pageSize - 4))) & (1<<(8*uint64(size)) - 1)
				}
				if got := m.Read(addr, size); got != want {
					t.Errorf("base %#x: Read(%#x, %d) = %#x, want %#x", base, addr, size, got, want)
				}
			}
			m.ReadBytes(addr, dst)
			_ = m.Byte(addr)
		}
		if m.PageCount() != pages {
			t.Errorf("base %#x: reads materialised pages: %d, want %d", base, m.PageCount(), pages)
		}
		if want := []byte{0, 0, 0, 0, 0, 0, 0, 0}; string(dst) != string(want) {
			t.Errorf("base %#x: ReadBytes of absent memory = %v, want zeros", base, dst)
		}
	}
}

// Readers share one Memory with no lock (a memoized run's final image is
// read from several goroutines), so a read must never write. Run under
// -race.
func TestMemoryPageConcurrentReaders(t *testing.T) {
	for _, base := range bases {
		m := NewMemory()
		for a := uint64(0); a < 4*pageSize; a += 8 {
			m.Write(base+a, 8, a*0x9E3779B97F4A7C15)
		}
		pages := m.PageCount()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var buf [24]byte
				for a := uint64(g); a < 8*pageSize; a += 13 {
					want := uint64(0)
					if a < 4*pageSize && a%8 == 0 {
						want = a * 0x9E3779B97F4A7C15
					}
					if got := m.Read(base+a, 8); a%8 == 0 && got != want {
						t.Errorf("base %#x: Read(%#x) = %#x, want %#x", base, base+a, got, want)
						return
					}
					m.ReadBytes(base+a, buf[:])
					_ = m.Byte(base + a)
				}
			}(g)
		}
		wg.Wait()
		if m.PageCount() != pages {
			t.Errorf("base %#x: concurrent reads materialised pages: %d, want %d", base, m.PageCount(), pages)
		}
	}
}
