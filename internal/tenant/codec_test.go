package tenant

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logbuf"
	"repro/internal/workloads"
)

// referenceSegments encodes steps the way the segment format is defined
// (see segTimeline), one binary.AppendUvarint per field and no fast
// paths: the oracle the encoder's output bytes are pinned to.
func referenceSegments(steps []step, segSteps int) [][]byte {
	var segs [][]byte
	var buf []byte
	var prev uint64
	for i, s := range steps {
		buf = binary.AppendUvarint(buf, s.cycle-prev)
		prev = s.cycle
		if s.bits == drainMark {
			buf = binary.AppendUvarint(buf, 0)
		} else {
			buf = binary.AppendUvarint(buf, uint64(s.bits)+1)
			buf = binary.AppendUvarint(buf, uint64(s.cost))
		}
		if (i+1)%segSteps == 0 || i == len(steps)-1 {
			segs = append(segs, buf)
			buf = nil
		}
	}
	return segs
}

// codecValues are the field values the codec fuzz draws from: each side
// of every varint width boundary, and the largest bits and cost a step
// carries. bits is encoded as bits+1, so 0x7e and 0x7f straddle the
// single-byte boundary of the bits code.
var codecValues = []uint64{0, 1, 0x7e, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000, maxStepBits, maxStepCost}

// decodeCorrupt decodes segs and returns the panic message, or "" when
// the decode finished.
func decodeCorrupt(segs [][]byte) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	src := segSource{segs: segs}
	var win [16]step
	for src.Next(win[:]) > 0 {
	}
	return ""
}

// FuzzSegmentCodec is the codec's differential: fuzzed steps drawn from
// codecValues (drains included) and encoded at a fuzzed segment size
// must produce exactly the reference bytes, decode back to the same
// steps through every window size from 1 to the step count, and a
// segment cut short by one byte or ending in a dangling continuation
// byte must still panic with the message of the field it cut.
func FuzzSegmentCodec(f *testing.F) {
	// Single-byte fields only, segment size 1.
	f.Add([]byte{0, 0, 1, 1, 1, 2, 0, 0, 0})
	// Every delta, bits and cost class once, drains between them.
	f.Add([]byte{3, 0, 1, 2, 9, 2, 3, 4, 5, 0, 6, 7, 8, 9, 10, 9, 10, 0, 10, 0})
	// Fast and slow fields mixed in one step, segment size 4.
	f.Add([]byte{4, 3, 0, 10, 1, 3, 1, 4, 2, 5, 6, 5, 7, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			t.Skip()
		}
		segSteps := int(data[0])%9 + 1
		pick := func(b byte) uint64 { return codecValues[int(b)%len(codecValues)] }
		var steps []step
		var cycle uint64
		for i := 1; i+2 < len(data) && len(steps) < 64; i += 3 {
			cycle += pick(data[i])
			if data[i+1]%5 == 0 {
				steps = append(steps, step{cycle: cycle, bits: drainMark})
				continue
			}
			bits, cost := pick(data[i+1]), pick(data[i+2])
			if bits > maxStepBits {
				bits = maxStepBits
			}
			steps = append(steps, step{cycle: cycle, bits: uint32(bits), cost: uint32(cost)})
		}
		if len(steps) == 0 {
			t.Skip()
		}
		tl, err := encodeSteps(steps, segSteps)
		if err != nil {
			t.Fatal(err)
		}
		segs := tl.(*segTimeline).segs
		if want := referenceSegments(steps, segSteps); !reflect.DeepEqual(segs, want) {
			t.Fatalf("segment size %d: encoder wrote\n%x\nreference holds\n%x", segSteps, segs, want)
		}
		for w := 1; w <= len(steps); w++ {
			src := tl.Open()
			dst := make([]step, w)
			var got []step
			for {
				n := src.Next(dst)
				if n == 0 {
					break
				}
				got = append(got, dst[:n]...)
			}
			if !reflect.DeepEqual(got, steps) {
				t.Fatalf("segment size %d, window %d: decoded %v, encoded %v", segSteps, w, got, steps)
			}
		}

		// The last step of each segment fixes which field a cut or a
		// dangling continuation byte breaks: a drain's bits code, or a
		// record's cost.
		for si, seg := range segs {
			last := steps[min((si+1)*segSteps, len(steps))-1]
			want := corruptCost
			if last.bits == drainMark {
				want = corruptCode
			}
			cut := append([][]byte{}, segs...)
			cut[si] = seg[:len(seg)-1]
			if got := decodeCorrupt(cut); got != want {
				t.Errorf("segment %d cut by one byte: panic %q, want %q", si, got, want)
			}
			dangling := append([][]byte{}, segs...)
			dangling[si] = append(bytes.Clone(seg[:len(seg)-1]), seg[len(seg)-1]|0x80)
			if got := decodeCorrupt(dangling); got != want {
				t.Errorf("segment %d ending in a continuation byte: panic %q, want %q", si, got, want)
			}
		}
		// A cycle delta wider than 64 bits overflows.
		overlong := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
		if got := decodeCorrupt(append([][]byte{overlong}, segs...)); got != corruptDelta {
			t.Errorf("overlong cycle delta: panic %q, want %q", got, corruptDelta)
		}
	})
}

// corpusProfiles decodes every checked-in FuzzReplayInvariants seed into
// its synthetic tenant set.
func corpusProfiles(t *testing.T) []*Profile {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzReplayInvariants")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []*Profile
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("corpus file %s: %v", e.Name(), err)
		}
		profiles = append(profiles, syntheticProfiles([]byte(data))...)
	}
	return profiles
}

// TestRetireShortcutMatchesWalk pins the premise of retire's shortcut: a
// departure window [arrive, arrive+AppCycles+k] truncates nothing, so
// the dedicated-core walk over it equals the profile's DedicatedWall.
// The walk is dedicatedWallOn itself, not the per-record reference, which
// shares retire. It covers profiled suite tenants (their steps end by
// AppCycles), NewSyntheticProfile timelines and every tenant of the
// replay fuzz corpus.
func TestRetireShortcutMatchesWalk(t *testing.T) {
	set, err := FromSuite(len(workloads.All()), workloads.Config{Scale: 5_000}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := NewEngine(0, nil).Profiles(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 1000} {
		p, err := NewSyntheticProfile("synthetic", n, 64, func(i int) SyntheticStep {
			return SyntheticStep{Cycle: uint64(i) * 9, Bits: 40, Cost: 30, Drain: i%17 == 5}
		})
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	profiles = append(profiles, corpusProfiles(t)...)

	for _, p := range profiles {
		for _, arrive := range []uint64{0, 4096} {
			for _, k := range []uint64{0, 1, 1 << 40} {
				var cur stepCursor
				cur.open(p.tl, make([]step, DefaultStepWindow), arrive, arrive+p.Result.AppCycles+k)
				got := dedicatedWallOn(logbuf.New(p.Tenant.Config.Channel), &cur, p.Result.AppCycles, nil)
				if got != p.DedicatedWall {
					t.Errorf("%s: window [%d, %d+AppCycles+%d] walks to wall %d, DedicatedWall is %d",
						p.Tenant.Name, arrive, arrive, k, got, p.DedicatedWall)
				}
			}
		}
	}
}
