package shadow

import (
	"slices"
	"testing"
)

// charge is one metered shadow access.
type charge struct {
	addr  uint64
	size  uint8
	write bool
}

// recordingMeter logs every shadow charge.
type recordingMeter struct{ charges []charge }

func (m *recordingMeter) Instr(uint64) {}
func (m *recordingMeter) Shadow(addr uint64, size uint8, write bool) {
	m.charges = append(m.charges, charge{addr, size, write})
}

// Spans and fills that cross a 4 KiB page of the shadow map read, write
// and charge exactly as they do inside one page.
func TestShadowMemoryPageBoundary(t *testing.T) {
	const page = 4096 // shadow bytes per page of the backing memory
	for _, gran := range []uint{0, 3} {
		meter := &recordingMeter{}
		s := New(gran, meter)
		for a := uint64(page - 16); a < page+16; a++ {
			s.Set(a<<gran, byte(a))
		}
		for app := uint64(page-12) << gran; app < (page+4)<<gran; app++ {
			for _, size := range []uint8{1, 2, 4, 8} {
				meter.charges = meter.charges[:0]
				var dst [8]byte
				n := s.GetSpan(app, size, &dst)
				first := app >> gran
				if want := int((app+uint64(size)-1)>>gran-first) + 1; n != want {
					t.Fatalf("gran %d: GetSpan(%#x, %d) = %d bytes, want %d", gran, app, size, n, want)
				}
				for i := 0; i < n; i++ {
					if dst[i] != byte(first+uint64(i)) {
						t.Fatalf("gran %d: GetSpan(%#x, %d)[%d] = %d, want %d", gran, app, size, i, dst[i], byte(first+uint64(i)))
					}
				}
				if want := []charge{{first, uint8(n), false}}; !slices.Equal(meter.charges, want) {
					t.Fatalf("gran %d: GetSpan(%#x, %d) charged %v, want %v", gran, app, size, meter.charges, want)
				}
			}
		}

		meter.charges = meter.charges[:0]
		app, length := uint64(page-100)<<gran, uint64(200)<<gran
		s.SetRange(app, length, 0xEE)
		first, last := app>>gran, (app+length-1)>>gran
		var want []charge
		for line := first &^ 63; line <= last; line += 64 {
			want = append(want, charge{line, 8, true})
		}
		if !slices.Equal(meter.charges, want) {
			t.Fatalf("gran %d: SetRange charged %v, want %v", gran, meter.charges, want)
		}
		for a := first - 2; a <= last+2; a++ {
			wantV := byte(0xEE)
			if a < first || a > last {
				wantV = 0
			}
			if got := s.Get(a << gran); got != wantV {
				t.Fatalf("gran %d: shadow byte %#x = %#x after SetRange, want %#x", gran, a, got, wantV)
			}
		}
		if s.Footprint() != 2*page {
			t.Fatalf("gran %d: footprint %d, want the two pages the fill touched", gran, s.Footprint())
		}
	}
}
