package vpc

// Predictor tables. All tables are power-of-two sized and indexed by a
// multiplicative hash so the compressor and decompressor stay in lockstep
// as long as they apply identical updates.

const (
	tableBits = 17
	tableSize = 1 << tableBits
	tableMask = tableSize - 1
)

// hashPC indexes per-static-instruction tables.
func hashPC(pc uint64) uint32 {
	return uint32((pc * 0x9E3779B97F4A7C15) >> (64 - tableBits))
}

// hashPCVal indexes context tables keyed by (instruction, value) — the
// first-order Markov bank that learns pointer-chase successions.
func hashPCVal(pc, val uint64) uint32 {
	return uint32(((pc ^ val*0xFF51AFD7ED558CCD) * 0x9E3779B97F4A7C15) >> (64 - tableBits))
}

// lastValueTable predicts "same value as last time this key was seen".
type lastValueTable struct {
	vals [tableSize]uint64
}

func (t *lastValueTable) predict(key uint32) uint64 { return t.vals[key&tableMask] }
func (t *lastValueTable) update(key uint32, v uint64) {
	t.vals[key&tableMask] = v
}

// stride predicts last + stride; it subsumes last-value prediction
// (stride 0) and captures array walks. Literals are encoded as deltas
// against last to keep them short.
type stride struct {
	last, stride uint64
}

func (s *stride) predict() uint64 { return s.last + s.stride }

func (s *stride) update(v uint64) {
	s.stride = v - s.last
	s.last = v
}

// pcEntry is every per-PC predictor of one hashed PC, kept together so a
// record touches one 48-byte entry, not a slot in each of six tables:
// the successor of a non-sequential transfer from the PC, its static
// operand tuple, and the strides of its address and auxiliary value.
type pcEntry struct {
	nextPC uint64
	tuple  uint64
	addr   stride
	aux    stride
}

// pcTable holds a pcEntry per hashed PC (hashPC).
type pcTable struct {
	entries [tableSize]pcEntry
}

func (t *pcTable) at(key uint32) *pcEntry { return &t.entries[key&tableMask] }

// fcm is an order-2 finite-context-method predictor: a rolling hash of the
// two most recent values selects the table slot holding the predicted next
// value. It captures pointer-chasing and other repeating value sequences
// that strides miss.
type fcm struct {
	ctx  uint64
	vals [tableSize]uint64
}

func (f *fcm) predict() uint64 {
	return f.vals[uint32(f.ctx)&tableMask]
}

func (f *fcm) update(v uint64) {
	f.vals[uint32(f.ctx)&tableMask] = v
	// Rolling order-2 context: shift in the new value's hash.
	f.ctx = (f.ctx<<16 | (v*0x9E3779B97F4A7C15)>>48) & 0xFFFF_FFFF
}

// tuplePack packs the static operand tuple (type, in1, in2, out, size) into
// one comparable word for the per-PC tuple predictor. The thread id is
// deliberately excluded: it is dynamic state (it would invalidate every
// per-PC entry at each context switch) and is predicted by its own
// last-value stream instead.
func tuplePack(ty, in1, in2, out, size uint8) uint64 {
	return uint64(ty) | uint64(in1)<<8 | uint64(in2)<<16 |
		uint64(out)<<24 | uint64(size)<<32
}

// tupleUnpack reverses tuplePack.
func tupleUnpack(v uint64) (ty, in1, in2, out, size uint8) {
	return uint8(v), uint8(v >> 8), uint8(v >> 16), uint8(v >> 24),
		uint8(v >> 32)
}
