package vpc_test

// Byte goldens for the compressed stream. The round-trip tests only prove
// that the decompressor undoes the compressor; these pin the exact bits,
// so a faster bit writer or predictor bank cannot silently change the
// stream format, the per-record sizes, or anything priced from them.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/vpc"
	"repro/internal/workloads"
)

// syntheticStream returns a seeded record stream mixing a predictable
// loop body (sequential PCs, strided addresses, repeated operand tuples)
// with random records of every type, so every predictor hit and every
// literal path is on the wire.
func syntheticStream(seed uint64, n int) []event.Record {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	loopTypes := [...]event.Type{event.TLoad, event.TALU, event.TStore, event.TMov, event.TBranch, event.TLoad}
	recs := make([]event.Record, n)
	for i := range recs {
		r := event.Record{In1: event.OpNone, In2: event.OpNone, Out: event.OpNone}
		if next()%8 != 0 {
			slot := i % len(loopTypes)
			r.Type = loopTypes[slot]
			r.PC = isa.PCForIndex(100 + slot)
			r.In1, r.Out = uint8(slot), uint8(slot+1)
			switch r.Type {
			case event.TLoad, event.TStore:
				r.Addr, r.Size = 0x10000+uint64(i/len(loopTypes))*8, 8
			case event.TBranch:
				r.Aux = next() & 1
			}
		} else {
			r.Type = event.Type(next() % uint64(event.NumTypes))
			r.TID = uint8(next() % 3)
			r.PC = isa.PCForIndex(int(next() % 5000))
			r.In1, r.In2, r.Out = uint8(next()%16), uint8(next()%16), uint8(next()%16)
			r.Size = []uint8{1, 2, 4, 8}[next()%4]
			switch r.Type {
			case event.TLoad, event.TStore, event.TJumpInd, event.TCallInd, event.TRet,
				event.TAlloc, event.TFree, event.TLock, event.TUnlock, event.TTaintSource:
				r.Addr = next() >> (next() % 64)
			}
			switch r.Type {
			case event.TBranch:
				r.Aux = next() & 1
			case event.TStore, event.TSyscall, event.TAlloc, event.TTaintSource, event.TThreadStart, event.TExit:
				r.Aux = next() >> (next() % 64)
			}
		}
		recs[i] = r
	}
	return recs
}

func TestVPCGolden(t *testing.T) {
	workload := func(name string) func(t *testing.T) []event.Record {
		return func(t *testing.T) []event.Record {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return captureStream(t, spec, 20_000)
		}
	}
	cases := []struct {
		name    string
		records func(t *testing.T) []event.Record
		n       int // records
		bits    int
		sha256  string
	}{
		{"synthetic", func(*testing.T) []event.Record { return syntheticStream(42, 50_000) },
			50_000, 1_020_175, "e395f6ce4043343e4a1c6d4fae34450e2a623896e80a94bd7c736b404afda2d7"},
		{"gzip", workload("gzip"),
			119_075, 799_092, "e848a9022e640c9fb91c636710ec5a7b6f5f95780b66f4fcb7ceb07e8a2f8cf3"},
		{"mcf", workload("mcf"),
			26_077, 404_029, "222b170f9d7b5a697eb0f1ca64f98b9580921fef8453aec0455481253a8c993c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			records := tc.records(t)
			c := vpc.NewCompressor()
			sum := 0
			for _, r := range records {
				sum += c.Append(r)
			}
			if sum != c.BitLen() {
				t.Errorf("per-record bits sum to %d, stream holds %d", sum, c.BitLen())
			}
			digest := sha256.Sum256(c.Bytes())
			got := hex.EncodeToString(digest[:])
			if len(records) != tc.n || c.BitLen() != tc.bits || got != tc.sha256 {
				t.Errorf("%d records, %d bits, sha256 %s; golden %d records, %d bits, sha256 %s",
					len(records), c.BitLen(), got, tc.n, tc.bits, tc.sha256)
			}
			if want := (c.BitLen() + 7) / 8; len(c.Bytes()) != want {
				t.Errorf("Bytes() holds %d bytes for %d bits, want %d", len(c.Bytes()), c.BitLen(), want)
			}
		})
	}
}
