package vpc

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/isa"
)

// Field-presence tables: which record types carry an address or an
// auxiliary value. Both sides derive field presence from the record type,
// so absent fields cost zero bits.
var typeHasAddr = [event.NumTypes]bool{
	event.TLoad:        true,
	event.TStore:       true,
	event.TJumpInd:     true,
	event.TCallInd:     true,
	event.TRet:         true,
	event.TAlloc:       true,
	event.TFree:        true,
	event.TLock:        true,
	event.TUnlock:      true,
	event.TTaintSource: true,
}

var typeHasAux = [event.NumTypes]bool{
	event.TStore:       true, // overwritten value (rewind mode only; else 0)
	event.TBranch:      true, // taken bit
	event.TSyscall:     true, // syscall number
	event.TAlloc:       true, // block size
	event.TTaintSource: true, // buffer length
	event.TThreadStart: true, // new thread id
	event.TExit:        true, // exit code
}

// predictors is the shared state of compressor and decompressor. Updates
// must be identical on both sides for the streams to stay in sync.
type predictors struct {
	lastPC  uint64
	lastTID uint8          // threads switch at scheduling quanta only
	pc      pcTable        // successor, operand tuple, address and aux strides, by PC
	addrMkv lastValueTable // first-order Markov: (PC, last addr) -> next addr
	addrFCM fcm            // global address FCM (cross-stream patterns)
	_       [0]func()      // prevent accidental comparison
}

// Compressor encodes records into a bitstream.
type Compressor struct {
	p predictors
	w BitWriter

	// Stats.
	Records uint64
	hitPC   uint64
	hitTup  uint64
	hitAddr uint64
	hitAux  uint64
}

// NewCompressor returns an empty compressor.
func NewCompressor() *Compressor { return &Compressor{} }

// Reset returns c to the state of a fresh compressor in place: the
// predictor bank, the statistics and the bit accumulator are zeroed, and
// the stream buffer keeps its capacity. A reused compressor thus costs
// one clear of its bank instead of a new 8 MB allocation.
func (c *Compressor) Reset() {
	// Field by field: assigning a whole Compressor literal would build
	// the 8 MB zero value on the stack and copy it.
	c.p = predictors{}
	c.w.Reset()
	c.Records, c.hitPC, c.hitTup, c.hitAddr, c.hitAux = 0, 0, 0, 0, 0
}

// Append compresses one record and returns the number of bits it consumed.
func (c *Compressor) Append(r event.Record) int { return c.AppendRecord(&r) }

// AppendRecord is Append for a record the caller holds in memory: it
// reads the fields in place, where passing the record by value would copy
// it first.
func (c *Compressor) AppendRecord(r *event.Record) int {
	before := c.w.BitLen()

	// --- Program counter ---
	// '0'        : sequential (lastPC + 4)
	// '10'       : non-sequential-successor table hit
	// '11'+varint: literal, zigzag delta from lastPC
	seq := r.PC == c.p.lastPC+isa.InstBytes
	if seq {
		c.w.WriteBit(0)
		c.hitPC++
	} else {
		from := c.p.pc.at(hashPC(c.p.lastPC))
		if from.nextPC == r.PC {
			c.w.WriteBits(0b01, 2) // '1' then '0'
			c.hitPC++
		} else {
			c.w.WriteBits(0b11, 2)
			c.w.WriteVarint(int64(r.PC - c.p.lastPC))
		}
		from.nextPC = r.PC
	}
	c.p.lastPC = r.PC

	// --- Thread id ---
	// '1': same thread as the previous record; '0'+8-bit literal.
	if r.TID == c.p.lastTID {
		c.w.WriteBit(1)
	} else {
		c.w.WriteBit(0)
		c.w.WriteBits(uint64(r.TID), 8)
		c.p.lastTID = r.TID
	}

	// --- Static operand tuple ---
	// '1': per-PC tuple hit; '0'+40-bit literal.
	packed := tuplePack(uint8(r.Type), r.In1, r.In2, r.Out, r.Size)
	e := c.p.pc.at(hashPC(r.PC))
	if e.tuple == packed {
		c.w.WriteBit(1)
		c.hitTup++
	} else {
		c.w.WriteBit(0)
		c.w.WriteBits(packed, 40)
		e.tuple = packed
	}

	// --- Address ---
	// '0': per-PC stride hit; '10': per-PC Markov hit (pointer chases);
	// '110': global FCM hit; '111'+varint: literal delta vs per-PC last.
	if typeHasAddr[r.Type] {
		last := e.addr.last
		mkey := hashPCVal(r.PC, last)
		switch {
		case e.addr.predict() == r.Addr:
			c.w.WriteBit(0)
			c.hitAddr++
		case c.p.addrMkv.predict(mkey) == r.Addr:
			c.w.WriteBits(0b01, 2)
			c.hitAddr++
		case c.p.addrFCM.predict() == r.Addr:
			c.w.WriteBits(0b011, 3)
			c.hitAddr++
		default:
			c.w.WriteBits(0b111, 3)
			c.w.WriteVarint(int64(r.Addr - last))
		}
		c.p.addrMkv.update(mkey, r.Addr)
		e.addr.update(r.Addr)
		c.p.addrFCM.update(r.Addr)
	}

	// --- Auxiliary value ---
	if typeHasAux[r.Type] {
		if r.Type == event.TBranch {
			c.w.WriteBit(r.Aux & 1) // taken bit, raw
			c.hitAux++
		} else {
			if e.aux.predict() == r.Aux {
				c.w.WriteBit(1)
				c.hitAux++
			} else {
				c.w.WriteBit(0)
				c.w.WriteVarint(int64(r.Aux - e.aux.last))
			}
			e.aux.update(r.Aux)
		}
	}

	c.Records++
	return c.w.BitLen() - before
}

// Bytes returns the compressed stream so far.
func (c *Compressor) Bytes() []byte { return c.w.Bytes() }

// BitLen returns the stream length in bits.
func (c *Compressor) BitLen() int { return c.w.BitLen() }

// BytesPerRecord reports average compressed bytes per record — the metric
// behind the paper's "less than one byte per instruction" claim.
func (c *Compressor) BytesPerRecord() float64 {
	if c.Records == 0 {
		return 0
	}
	return float64(c.w.BitLen()) / 8 / float64(c.Records)
}

// Ratio reports raw/compressed size.
func (c *Compressor) Ratio() float64 {
	if c.w.BitLen() == 0 {
		return 0
	}
	raw := float64(c.Records) * event.EncodedSize * 8
	return raw / float64(c.w.BitLen())
}

// HitRates returns per-field predictor hit fractions (pc, tuple, addr, aux).
func (c *Compressor) HitRates() (pc, tuple, addr, aux float64) {
	if c.Records == 0 {
		return
	}
	n := float64(c.Records)
	return float64(c.hitPC) / n, float64(c.hitTup) / n,
		float64(c.hitAddr) / n, float64(c.hitAux) / n
}

// Decompressor decodes a stream produced by Compressor.
type Decompressor struct {
	p predictors
	r *BitReader
}

// NewDecompressor reads records from buf.
func NewDecompressor(buf []byte) *Decompressor {
	return &Decompressor{r: NewBitReader(buf)}
}

// Next decodes one record. The caller must know how many records the stream
// holds (the log buffer and trace files carry counts; the hardware analogue
// is the ring buffer's read/write pointers).
func (d *Decompressor) Next() (event.Record, error) {
	var rec event.Record

	// --- Program counter ---
	var pc uint64
	if d.r.ReadBit() == 0 {
		pc = d.p.lastPC + isa.InstBytes
	} else {
		from := d.p.pc.at(hashPC(d.p.lastPC))
		if d.r.ReadBit() == 0 {
			pc = from.nextPC
		} else {
			pc = d.p.lastPC + uint64(d.r.ReadVarint())
		}
		from.nextPC = pc
	}
	d.p.lastPC = pc
	rec.PC = pc

	// --- Thread id ---
	if d.r.ReadBit() == 1 {
		rec.TID = d.p.lastTID
	} else {
		rec.TID = uint8(d.r.ReadBits(8))
		d.p.lastTID = rec.TID
	}

	// --- Static operand tuple ---
	e := d.p.pc.at(hashPC(pc))
	var packed uint64
	if d.r.ReadBit() == 1 {
		packed = e.tuple
	} else {
		packed = d.r.ReadBits(40)
		e.tuple = packed
	}
	var ty uint8
	ty, rec.In1, rec.In2, rec.Out, rec.Size = tupleUnpack(packed)
	rec.Type = event.Type(ty)
	if !rec.Type.Valid() {
		return rec, fmt.Errorf("vpc: corrupt stream: record %s at bit %d",
			rec.Type, d.r.BitPos())
	}

	// --- Address ---
	if typeHasAddr[rec.Type] {
		last := e.addr.last
		mkey := hashPCVal(pc, last)
		if d.r.ReadBit() == 0 {
			rec.Addr = e.addr.predict()
		} else if d.r.ReadBit() == 0 {
			rec.Addr = d.p.addrMkv.predict(mkey)
		} else if d.r.ReadBit() == 0 {
			rec.Addr = d.p.addrFCM.predict()
		} else {
			rec.Addr = last + uint64(d.r.ReadVarint())
		}
		d.p.addrMkv.update(mkey, rec.Addr)
		e.addr.update(rec.Addr)
		d.p.addrFCM.update(rec.Addr)
	}

	// --- Auxiliary value ---
	if typeHasAux[rec.Type] {
		if rec.Type == event.TBranch {
			rec.Aux = d.r.ReadBit()
		} else {
			if d.r.ReadBit() == 1 {
				rec.Aux = e.aux.predict()
			} else {
				rec.Aux = e.aux.last + uint64(d.r.ReadVarint())
			}
			e.aux.update(rec.Aux)
		}
	}

	return rec, nil
}
