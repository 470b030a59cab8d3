package vpc_test

import (
	"bytes"
	"testing"

	"repro/internal/event"
	"repro/internal/vpc"
)

// compressed is everything a compressor reports about the stream it
// encoded.
type compressed struct {
	bits        []int // per-record sizes
	stream      []byte
	bitLen      int
	records     uint64
	hitRates    [4]float64
	bytesPerRec float64
	ratio       float64
}

func compressInto(c *vpc.Compressor, recs []event.Record) compressed {
	var out compressed
	for _, r := range recs {
		out.bits = append(out.bits, c.Append(r))
	}
	out.stream = bytes.Clone(c.Bytes())
	out.bitLen = c.BitLen()
	out.records = c.Records
	pc, tup, addr, aux := c.HitRates()
	out.hitRates = [4]float64{pc, tup, addr, aux}
	out.bytesPerRec = c.BytesPerRecord()
	out.ratio = c.Ratio()
	return out
}

// A reset compressor is a fresh one: whatever it encoded before, however
// far it got and whether its stream was read, the next stream comes out
// bit for bit as a new compressor's, with the same statistics.
func TestCompressorResetMatchesFresh(t *testing.T) {
	first := syntheticStream(7, 20_000)
	// End the earlier stream on another thread, so a kept lastTID
	// changes the second stream's first record.
	first[len(first)-1].TID = 2
	first[len(first)/2-1].TID = 1
	second := syntheticStream(42, 20_000)
	want := compressInto(vpc.NewCompressor(), second)

	cases := []struct {
		name    string
		prepare func(c *vpc.Compressor)
	}{
		{"after a whole stream", func(c *vpc.Compressor) {
			for _, r := range first {
				c.Append(r)
			}
		}},
		{"mid-stream", func(c *vpc.Compressor) {
			for _, r := range first[:len(first)/2] {
				c.Append(r)
			}
			c.Append(event.Record{Type: event.TBranch, PC: 4, Aux: 1}) // leave bits pending
		}},
		{"after Bytes", func(c *vpc.Compressor) {
			for _, r := range first {
				c.Append(r)
			}
			c.Append(event.Record{Type: event.TExit, PC: 8, Aux: 3, TID: 1})
			_ = c.Bytes()
		}},
		{"twice", func(c *vpc.Compressor) {
			for _, r := range first {
				c.Append(r)
			}
			c.Reset()
			for _, r := range first[:100] {
				c.Append(r)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := vpc.NewCompressor()
			tc.prepare(c)
			c.Reset()
			if c.BitLen() != 0 || c.Records != 0 || len(c.Bytes()) != 0 {
				t.Fatalf("after Reset: %d bits, %d records, %d bytes; want an empty stream",
					c.BitLen(), c.Records, len(c.Bytes()))
			}
			got := compressInto(c, second)
			for i := range want.bits {
				if got.bits[i] != want.bits[i] {
					t.Fatalf("record %d took %d bits after Reset, %d on a fresh compressor", i, got.bits[i], want.bits[i])
				}
			}
			if !bytes.Equal(got.stream, want.stream) || got.bitLen != want.bitLen {
				t.Errorf("stream after Reset: %d bits, want %d (bytes equal: %v)",
					got.bitLen, want.bitLen, bytes.Equal(got.stream, want.stream))
			}
			if got.records != want.records || got.hitRates != want.hitRates ||
				got.bytesPerRec != want.bytesPerRec || got.ratio != want.ratio {
				t.Errorf("stats after Reset: %d records, hit rates %v, %v B/record, ratio %v; fresh: %d, %v, %v, %v",
					got.records, got.hitRates, got.bytesPerRec, got.ratio,
					want.records, want.hitRates, want.bytesPerRec, want.ratio)
			}
		})
	}
}
