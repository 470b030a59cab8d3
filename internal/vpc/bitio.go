// Package vpc implements the value-prediction-based log compressor of the
// LBA design. The paper adapts Burtscher's VPC trace compression
// (SIGMETRICS/PERFORMANCE 2004) "to achieve less than one byte per
// instruction with moderate chip area requirements" (§2).
//
// The scheme: compressor and decompressor maintain identical banks of value
// predictors for each record field (program counter, the static operand
// tuple, effective address, auxiliary value). For each field the compressor
// emits a short prefix code saying which predictor was right, or a literal
// when all predictors miss; the decompressor replays the same predictions.
// Because loops make consecutive records highly predictable, the common
// case costs a handful of bits.
package vpc

import "encoding/binary"

// BitWriter accumulates a bitstream least-significant-bit first within each
// byte. Bits collect in a 64-bit accumulator that spills to the buffer
// eight bytes at a time, so a write costs a shift and an OR rather than a
// loop over byte chunks. The zero value is an empty writer ready for use.
type BitWriter struct {
	buf  []byte // whole bytes spilled from acc
	acc  uint64 // pending bits, LSB first
	nacc uint   // bits pending in acc (0..63)
}

// WriteBits appends the low n bits of v (n <= 64).
func (w *BitWriter) WriteBits(v uint64, n uint) {
	v &= 1<<n - 1 // all ones at n == 64: Go shifts past the width yield 0
	w.acc |= v << (w.nacc & 63)
	if w.nacc+n < 64 {
		w.nacc += n
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
	w.acc = v >> (64 - w.nacc) // 0 when nacc == 0: nothing was left over
	w.nacc = w.nacc + n - 64
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint64) { w.WriteBits(b&1, 1) }

// WriteUvarint appends v in LEB128 groups (7 data bits + continuation bit),
// keeping the stream decodable without byte alignment.
func (w *BitWriter) WriteUvarint(v uint64) {
	for {
		g := v & 0x7F
		v >>= 7
		if v != 0 {
			w.WriteBits(g|0x80, 8)
		} else {
			w.WriteBits(g, 8)
			return
		}
	}
}

// WriteVarint appends a signed value with zigzag encoding.
func (w *BitWriter) WriteVarint(v int64) {
	w.WriteUvarint(uint64((v << 1) ^ (v >> 63)))
}

// BitLen returns the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Bytes returns the stream written so far, final byte zero-padded. The
// pending bits are copied past the end of the buffer without extending
// it, so the slice is valid until the next write and later writes
// continue the same stream.
func (w *BitWriter) Bytes() []byte {
	if w.nacc == 0 {
		return w.buf
	}
	n := len(w.buf)
	full := append(w.buf, make([]byte, 8)...)
	binary.LittleEndian.PutUint64(full[n:], w.acc)
	w.buf = full[:n]
	return full[:n+int(w.nacc+7)/8]
}

// Reset clears the writer for reuse, keeping the allocation.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// BitReader consumes a bitstream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within buf[pos]
}

// NewBitReader reads from buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits extracts n bits (n <= 64). Reading past the end yields zero bits;
// callers detect truncation through record counts, not stream length.
func (r *BitReader) ReadBits(n uint) uint64 {
	var v uint64
	var got uint
	for n > 0 {
		if r.pos >= len(r.buf) {
			return v
		}
		avail := 8 - r.bit
		take := n
		if take > avail {
			take = avail
		}
		bits := uint64(r.buf[r.pos]>>r.bit) & ((1 << take) - 1)
		v |= bits << got
		got += take
		r.bit += take
		if r.bit == 8 {
			r.bit = 0
			r.pos++
		}
		n -= take
	}
	return v
}

// ReadBit reads one bit.
func (r *BitReader) ReadBit() uint64 { return r.ReadBits(1) }

// ReadUvarint reads a LEB128 value written by WriteUvarint.
func (r *BitReader) ReadUvarint() uint64 {
	var v uint64
	var shift uint
	for {
		g := r.ReadBits(8)
		v |= (g & 0x7F) << shift
		if g&0x80 == 0 {
			return v
		}
		shift += 7
		if shift >= 64 {
			return v
		}
	}
}

// ReadVarint reads a zigzag value written by WriteVarint.
func (r *BitReader) ReadVarint() int64 {
	u := r.ReadUvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// BitPos returns the current read position in bits.
func (r *BitReader) BitPos() int { return r.pos*8 + int(r.bit) }
