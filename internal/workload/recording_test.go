package workload

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"
	"unsafe"

	"vccmin/internal/trace"
)

// TestRecordingReplayMatchesLive is the recording's differential test:
// for every profile, several seeds and lengths, the replayed stream is
// the live generator's trace.Instr sequence, field for field.
func TestRecordingReplayMatchesLive(t *testing.T) {
	seeds := []int64{1, -7, 1 << 40}
	lengths := []int{0, 1, 997, 20_000}
	var rec Recording // reused across every case, as a sweep cell does
	for _, p := range Profiles() {
		for _, seed := range seeds {
			for _, n := range lengths {
				if err := rec.Record(p, seed, n); err != nil {
					t.Fatal(err)
				}
				if rec.Benchmark() != p.Name || rec.Seed() != seed || len(rec.instrs) != n {
					t.Fatalf("recording reports %s/%d/%d, want %s/%d/%d",
						rec.Benchmark(), rec.Seed(), len(rec.instrs), p.Name, seed, n)
				}
				live := MustNewGenerator(p, seed)
				replay := rec.Replay()
				var want, got trace.Instr
				for i := 0; i < n; i++ {
					live.Next(&want)
					replay.Next(&got)
					if got != want {
						t.Fatalf("%s seed %d len %d: instr %d replays %+v, live %+v", p.Name, seed, n, i, got, want)
					}
				}
			}
		}
	}
}

// TestRecordingIsCompact pins the memory cost: at most 16 bytes an
// instruction (the packed word is 8), against 48 for a trace.Instr.
func TestRecordingIsCompact(t *testing.T) {
	p, _ := ByName("mcf")
	var rec Recording
	const n = 10_000
	if err := rec.Record(p, 1, n); err != nil {
		t.Fatal(err)
	}
	if bytes := int(unsafe.Sizeof(rec.instrs[0])) * cap(rec.instrs); bytes > 16*n {
		t.Fatalf("%d instructions take %d bytes, want <= %d", n, bytes, 16*n)
	}
}

// TestRecordingReuseAllocatesNothing re-records into one Recording,
// switching profile and seed, and requires zero allocations once its
// buffers have grown to the largest stream and profile.
func TestRecordingReuseAllocatesNothing(t *testing.T) {
	crafty, _ := ByName("crafty")
	mcf, _ := ByName("mcf")
	var rec Recording
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		for _, p := range []Profile{crafty, mcf} {
			if err := rec.Record(p, seed, 5_000); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("re-recording allocated %.1f times per run, want 0", allocs)
	}
}

func TestRecordingRejects(t *testing.T) {
	var rec Recording
	gzip, _ := ByName("gzip")
	if err := rec.Record(gzip, 1, 10); err != nil {
		t.Fatal(err)
	}
	bad := gzip
	bad.Name = ""
	for name, c := range map[string]struct {
		prof Profile
		n    int
		want string
	}{
		"negative length": {gzip, -1, "negative recording length"},
		"invalid profile": {bad, 10, "needs a name"},
	} {
		err := rec.Record(c.prof, 1, c.n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
		if rec.Benchmark() != "" || len(rec.instrs) != 0 {
			t.Errorf("%s: failed Record left %q/%d instructions", name, rec.Benchmark(), len(rec.instrs))
		}
	}
}

// TestPackRefusesBrokenInvariants: an instruction the packed word cannot
// represent exactly is refused, never stored lossily.
func TestPackRefusesBrokenInvariants(t *testing.T) {
	ok := trace.Instr{PC: codeBase, Class: trace.Load, Addr: reuseBase + 64, Dep1: 64, Dep2: 0}
	if _, err := pack(&ok, codeBase); err != nil {
		t.Fatalf("valid load refused: %v", err)
	}
	for name, c := range map[string]struct {
		mutate func(*trace.Instr)
		want   string
	}{
		"pc off sequence": {func(i *trace.Instr) { i.PC += instrSize }, "breaks the fall-through"},
		"dep1 too far":    {func(i *trace.Instr) { i.Dep1 = 65 }, "dependence distances"},
		"dep2 negative":   {func(i *trace.Instr) { i.Dep2 = -1 }, "dependence distances"},
		"taken load":      {func(i *trace.Instr) { i.Taken = true }, "taken load"},
		"load target":     {func(i *trace.Instr) { i.Target = codeBase }, "does not use"},
		"branch addr":     {func(i *trace.Instr) { i.Class = trace.Branch; i.Target = codeBase }, "does not use"},
		"alu addr":        {func(i *trace.Instr) { i.Class = trace.IntALU }, "does not use"},
		"wide addr":       {func(i *trace.Instr) { i.Addr = 1 << 46 }, "exceeds 46 bits"},
	} {
		ins := ok
		c.mutate(&ins)
		if _, err := pack(&ins, codeBase); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

// TestGeneratorStreamPinned pins a digest of every profile's stream, so
// a change to the generator that alters a single field of a single
// instruction fails here, not only in downstream goldens.
func TestGeneratorStreamPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range Profiles() {
		for _, seed := range []int64{1, -7} {
			g := MustNewGenerator(p, seed)
			var ins trace.Instr
			for i := 0; i < 20_000; i++ {
				g.Next(&ins)
				taken := uint64(0)
				if ins.Taken {
					taken = 1
				}
				put(ins.PC)
				put(uint64(ins.Class))
				put(ins.Addr)
				put(taken)
				put(ins.Target)
				put(uint64(ins.Dep1))
				put(uint64(ins.Dep2))
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x7deaf2acf87a050); got != want {
		t.Fatalf("stream digest %#x, want %#x", got, want)
	}
}
