package vpc

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBitWriter is the specification of BitWriter's output: it appends one
// bit at a time, least-significant bit first within each byte, with the
// final byte zero-padded.
type refBitWriter struct {
	buf  []byte
	nbit int
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := uint(0); i < n; i++ {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[w.nbit/8] |= byte(v>>i&1) << (w.nbit % 8)
		w.nbit++
	}
}

func (w *refBitWriter) writeUvarint(v uint64) {
	for {
		g := v & 0x7F
		v >>= 7
		if v == 0 {
			w.writeBits(g, 8)
			return
		}
		w.writeBits(g|0x80, 8)
	}
}

// checkBitWriter fails unless w holds exactly ref's stream.
func checkBitWriter(t *testing.T, what string, w *BitWriter, ref *refBitWriter) {
	t.Helper()
	if w.BitLen() != ref.nbit {
		t.Fatalf("%s: BitLen %d, reference %d", what, w.BitLen(), ref.nbit)
	}
	if got := w.Bytes(); !bytes.Equal(got, ref.buf) {
		t.Fatalf("%s: Bytes\n got %x\nwant %x", what, got, ref.buf)
	}
}

// Every width at every alignment, so each write lands on both sides of
// the writer's 64-bit accumulator boundary, with Bytes() called between
// writes and the stream continuing afterwards.
func TestBitWriterMatchesReferenceEveryWidth(t *testing.T) {
	const v = 0xF0E1D2C3B4A59687
	for pre := uint(0); pre <= 64; pre++ {
		for n := uint(0); n <= 64; n++ {
			var w BitWriter
			var ref refBitWriter
			w.WriteBits(^uint64(0), pre)
			ref.writeBits(^uint64(0), pre)
			checkBitWriter(t, "prefix", &w, &ref)
			w.WriteBits(v, n)
			ref.writeBits(v, n)
			checkBitWriter(t, "value", &w, &ref)
			w.WriteBits(0x5, 3)
			ref.writeBits(0x5, 3)
			w.WriteBits(v, 64)
			ref.writeBits(v, 64)
			checkBitWriter(t, "suffix", &w, &ref)
		}
	}
}

// A seeded random mix of every writer operation, checked after each one.
func TestBitWriterMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w BitWriter
	var ref refBitWriter
	for op := 0; op < 20_000; op++ {
		v := rng.Uint64() >> rng.Intn(64)
		switch k := rng.Intn(10); {
		case k < 5:
			n := uint(rng.Intn(65))
			w.WriteBits(v, n)
			ref.writeBits(v, n)
		case k < 6:
			w.WriteBit(v)
			ref.writeBits(v&1, 1)
		case k < 7:
			w.WriteUvarint(v)
			ref.writeUvarint(v)
		case k < 8:
			s := int64(v)
			if rng.Intn(2) == 0 {
				s = -s
			}
			w.WriteVarint(s)
			ref.writeUvarint(uint64((s << 1) ^ (s >> 63)))
		case k < 9:
			// BitLen alone, without a Bytes() call in between.
			if w.BitLen() != ref.nbit {
				t.Fatalf("op %d: BitLen %d, reference %d", op, w.BitLen(), ref.nbit)
			}
			continue
		default:
			if rng.Intn(50) == 0 {
				w.Reset()
				ref = refBitWriter{}
			}
		}
		checkBitWriter(t, "random op", &w, &ref)
	}
}
