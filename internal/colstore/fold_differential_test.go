package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vccmin/internal/sweep"
)

// This file freezes the fold's original write path — one closure per
// column, each ranging over the rows by value, an fmt.Sprintf key
// check, and an encoder that grows its output by append — and holds
// the one-pass NewShard and the pre-sized EncodeBytes byte-identical to
// it, error text included.

// referenceCellKey is the frozen Sprintf spelling of the canonical key.
func referenceCellKey(pfail float64, size, ways, block int64, scheme, victim, gran, policy string) string {
	key := fmt.Sprintf("pfail=%s;geom=%dx%dx%d;scheme=%s;victim=%s;gran=%s",
		strconv.FormatFloat(pfail, 'g', -1, 64),
		size, ways, block, scheme, victim, gran)
	if policy != "" {
		key += ";policy=" + policy
	}
	return key
}

// referenceNewShard is the frozen 27-closure NewShard.
func referenceNewShard(rows []sweep.Row) (*Shard, error) {
	s := &Shard{
		rows:   len(rows),
		ints:   make(map[string][]int64),
		strs:   make(map[string]strCol),
		floats: make(map[string][]float64),
		opts:   make(map[string]optCol),
	}
	n := len(rows)
	intVals := func(get func(sweep.Row) int64) []int64 {
		out := make([]int64, n)
		for i, r := range rows {
			out[i] = get(r)
		}
		return out
	}
	floatVals := func(get func(sweep.Row) float64) []float64 {
		out := make([]float64, n)
		for i, r := range rows {
			out[i] = get(r)
		}
		return out
	}
	strVals := func(get func(sweep.Row) string) strCol {
		c := strCol{idx: make([]uint32, n)}
		ids := make(map[string]uint32)
		for i, r := range rows {
			v := get(r)
			id, ok := ids[v]
			if !ok {
				id = uint32(len(c.dict))
				ids[v] = id
				c.dict = append(c.dict, v)
			}
			c.idx[i] = id
		}
		return c
	}
	optVals := func(get func(sweep.Row) *float64) optCol {
		c := optCol{present: make([]bool, n), vals: make([]float64, n)}
		for i, r := range rows {
			if p := get(r); p != nil {
				c.present[i] = true
				c.vals[i] = *p
			}
		}
		return c
	}

	for i, r := range rows {
		want := referenceCellKey(r.Pfail, int64(r.GeomSize), int64(r.GeomWays), int64(r.GeomBlock),
			r.Scheme, r.Victim, r.Granularity, r.Policy)
		if r.Key != want {
			return nil, fmt.Errorf("colstore: row %d key %q is not the canonical cell key %q", i, r.Key, want)
		}
	}

	s.ints["index"] = intVals(func(r sweep.Row) int64 { return int64(r.Index) })
	s.strs["stream"] = strVals(func(r sweep.Row) string { return r.Stream })
	s.floats["pfail"] = floatVals(func(r sweep.Row) float64 { return r.Pfail })
	s.ints["geom_size"] = intVals(func(r sweep.Row) int64 { return int64(r.GeomSize) })
	s.ints["geom_ways"] = intVals(func(r sweep.Row) int64 { return int64(r.GeomWays) })
	s.ints["geom_block"] = intVals(func(r sweep.Row) int64 { return int64(r.GeomBlock) })
	s.strs["scheme"] = strVals(func(r sweep.Row) string { return r.Scheme })
	s.strs["victim"] = strVals(func(r sweep.Row) string { return r.Victim })
	s.strs["granularity"] = strVals(func(r sweep.Row) string { return r.Granularity })
	s.ints["seed"] = intVals(func(r sweep.Row) int64 { return r.Seed })
	s.floats["expected_capacity"] = floatVals(func(r sweep.Row) float64 { return r.ExpectedCapacity })
	s.floats["whole_cache_fail_prob"] = floatVals(func(r sweep.Row) float64 { return r.WholeCacheFailProb })
	s.floats["mean_ipc"] = floatVals(func(r sweep.Row) float64 { return r.MeanIPC })
	s.floats["baseline_ipc"] = floatVals(func(r sweep.Row) float64 { return r.BaselineIPC })
	s.floats["ipc_degradation"] = floatVals(func(r sweep.Row) float64 { return r.IPCDegradation })
	s.floats["measured_capacity"] = floatVals(func(r sweep.Row) float64 { return r.MeasuredCapacity })
	s.ints["unfit_trials"] = intVals(func(r sweep.Row) int64 { return int64(r.UnfitTrials) })
	s.floats["voltage"] = floatVals(func(r sweep.Row) float64 { return r.Voltage })
	s.floats["frequency"] = floatVals(func(r sweep.Row) float64 { return r.Frequency })
	s.floats["energy_per_instruction"] = floatVals(func(r sweep.Row) float64 { return r.EnergyPerInstruction })
	s.ints["trials"] = intVals(func(r sweep.Row) int64 { return int64(r.Trials) })
	s.ints["benchmarks"] = intVals(func(r sweep.Row) int64 { return int64(r.Benchmarks) })
	s.strs["policy"] = strVals(func(r sweep.Row) string { return r.Policy })
	s.floats["dvfs_performance"] = floatVals(func(r sweep.Row) float64 { return r.DVFSPerformance })
	s.floats["dvfs_energy_per_instruction"] = floatVals(func(r sweep.Row) float64 { return r.DVFSEnergyPerInst })
	s.opts["dvfs_switches"] = optVals(func(r sweep.Row) *float64 { return r.DVFSSwitches })
	s.opts["dvfs_low_share"] = optVals(func(r sweep.Row) *float64 { return r.DVFSLowShare })
	return s, nil
}

// referenceEncodeBytes is the frozen append-grown encoder.
func referenceEncodeBytes(s *Shard) []byte {
	buf := []byte(magic)
	type colMeta struct {
		kind        byte
		off, length uint64
	}
	metas := make([]colMeta, len(schema))
	body := func(i int, kind byte, payload func([]byte) []byte) {
		start := uint64(len(buf) - len(magic))
		buf = payload(buf)
		metas[i] = colMeta{kind: kind, off: start, length: uint64(len(buf)-len(magic)) - start}
	}

	for i, def := range schema {
		switch def.class {
		case classInt:
			vals := s.ints[def.name]
			body(i, kindInt, func(b []byte) []byte {
				prev := int64(0)
				for _, v := range vals {
					b = binary.AppendUvarint(b, zigzag(v-prev))
					prev = v
				}
				return b
			})
		case classStr:
			col := s.strs[def.name]
			body(i, kindStr, func(b []byte) []byte {
				b = binary.AppendUvarint(b, uint64(len(col.dict)))
				for _, v := range col.dict {
					b = binary.AppendUvarint(b, uint64(len(v)))
					b = append(b, v...)
				}
				for _, id := range col.idx {
					b = binary.AppendUvarint(b, uint64(id))
				}
				return b
			})
		case classFloat:
			vals := s.floats[def.name]
			dict, idx, ok := referenceFloatDict(vals)
			if ok && useFloatDict(len(dict), len(vals)) {
				body(i, kindFloatDict, func(b []byte) []byte {
					b = binary.AppendUvarint(b, uint64(len(dict)))
					for _, v := range dict {
						b = binary.LittleEndian.AppendUint64(b, v)
					}
					for _, id := range idx {
						b = binary.AppendUvarint(b, uint64(id))
					}
					return b
				})
			} else {
				body(i, kindFloatRaw, func(b []byte) []byte {
					for _, v := range vals {
						b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
					}
					return b
				})
			}
		case classOpt:
			col := s.opts[def.name]
			body(i, kindOpt, func(b []byte) []byte {
				bitmap := make([]byte, (s.rows+7)/8)
				for r, p := range col.present {
					if p {
						bitmap[r/8] |= 1 << (r % 8)
					}
				}
				b = append(b, bitmap...)
				for r, p := range col.present {
					if p {
						b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col.vals[r]))
					}
				}
				return b
			})
		}
	}

	footerStart := uint64(len(buf))
	buf = binary.AppendUvarint(buf, uint64(s.rows))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	for i, def := range schema {
		buf = binary.AppendUvarint(buf, uint64(len(def.name)))
		buf = append(buf, def.name...)
		buf = append(buf, metas[i].kind)
		buf = binary.AppendUvarint(buf, metas[i].off)
		buf = binary.AppendUvarint(buf, metas[i].length)
	}
	return binary.LittleEndian.AppendUint64(buf, footerStart)
}

// referenceFloatDict is the frozen float dictionary with its rows-long
// index.
func referenceFloatDict(vals []float64) (dict []uint64, idx []uint32, ok bool) {
	dict = make([]uint64, 0, 16)
	idx = make([]uint32, len(vals))
	ids := make(map[uint64]uint32, 16)
	for i, v := range vals {
		bits := math.Float64bits(v)
		id, seen := ids[bits]
		if !seen {
			if len(dict) == maxFloatDict {
				return nil, nil, false
			}
			id = uint32(len(dict))
			ids[bits] = id
			dict = append(dict, bits)
		}
		idx[i] = id
	}
	return dict, idx, true
}

// edgeRows are hand-made rows for the spots a one-pass rewrite could
// get wrong: pfail spellings with exponents, 5- and 6-digit geometry
// sizes, empty and set policies, nil and present DVFS pointers on
// alternate rows, a scheme that alternates every row (so the
// last-value cache misses every time), signed zeros and NaN payloads
// (the float dictionary keys on bits), a string and a float column
// with more than 128 distinct values (2-byte varint indices) and float
// columns at the dictionary's 255-entry limit and one past it.
func edgeRows(n int) []sweep.Row {
	pfails := []float64{1e-05, 1.5e-4, 0.001, 2.5e-3, 1e-7}
	geoms := [][3]int{{16384, 4, 64}, {32768, 8, 64}, {131072, 16, 128}}
	nan := math.Float64frombits(0x7ff8000000000001)
	rows := make([]sweep.Row, n)
	for i := range rows {
		g := geoms[i/7%len(geoms)]
		r := sweep.Row{
			Index:  i,
			Stream: sweep.StreamVersion,
			Pfail:  pfails[i/3%len(pfails)],

			GeomSize: g[0], GeomWays: g[1], GeomBlock: g[2],
			Scheme:      []string{"word", "block"}[i%2],
			Victim:      "none",
			Granularity: "block",
			Seed:        int64(i) * -7919,

			ExpectedCapacity:   []float64{0, math.Copysign(0, -1), nan, 1}[i%4],
			WholeCacheFailProb: float64(i % 200),
			MeanIPC:            float64(i % maxFloatDict),
			BaselineIPC:        float64(i % (maxFloatDict + 1)),
			IPCDegradation:     float64(i),
			MeasuredCapacity:   1,
			UnfitTrials:        i % 3,
			Voltage:            0.6 + float64(i%5)/100,
			Frequency:          1,

			EnergyPerInstruction: float64(i % 129),
			Trials:               1 << 20,
			Benchmarks:           26,
		}
		if i%2 == 1 {
			r.Policy = "p" + strconv.Itoa(i/2%150)
			r.DVFSPerformance = float64(i)
			sw := float64(i % 4)
			r.DVFSSwitches = &sw
		}
		if i%3 == 0 {
			ls := math.Copysign(0, -1)
			r.DVFSLowShare = &ls
		}
		r.Key = testKey(r)
		rows[i] = r
	}
	return rows
}

// TestFoldDifferential holds the one-pass NewShard and the pre-sized
// EncodeBytes byte-identical to the frozen originals.
func TestFoldDifferential(t *testing.T) {
	type tc struct {
		name string
		rows []sweep.Row
	}
	var cases []tc
	sizes := []int{0, 1, 1000, DefaultShardRows}
	seeds := []int64{1, 7, 42}
	if raceEnabled || testing.Short() {
		seeds = seeds[:1]
	}
	for _, n := range sizes {
		for _, seed := range seeds {
			for _, dvfs := range []bool{false, true} {
				cases = append(cases, tc{fmt.Sprintf("gen/n=%d/seed=%d/dvfs=%v", n, seed, dvfs), genRows(n, seed, dvfs)})
			}
		}
	}
	for _, n := range []int{1, 2, 255, 256, 2000} {
		cases = append(cases, tc{fmt.Sprintf("edge/n=%d", n), edgeRows(n)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, err := referenceNewShard(c.rows)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEncodeBytes(ref)
			s := mustShard(t, c.rows)
			// The frozen encoder over the new shard isolates NewShard;
			// the new encoder's output then isolates EncodeBytes.
			if string(referenceEncodeBytes(s)) != string(want) {
				t.Fatal("NewShard built different columns than the reference")
			}
			got := s.EncodeBytes()
			if string(got) != string(want) {
				t.Fatalf("EncodeBytes differs from the reference: %d vs %d bytes", len(got), len(want))
			}
			if len(got) != cap(got) {
				t.Fatalf("EncodeBytes sized its buffer at %d bytes for %d", cap(got), len(got))
			}
			// Rows feeds NewShard the same bytes back; bits, not ==, so
			// NaN payloads count.
			if back := mustShard(t, s.Rows()).EncodeBytes(); string(back) != string(want) {
				t.Fatal("Rows → NewShard → EncodeBytes is not byte-identical")
			}
		})
	}
}

// TestFoldDifferentialKeyError: the non-canonical-key error reads
// exactly as it did, for every position and kind of bad key.
func TestFoldDifferentialKeyError(t *testing.T) {
	for _, c := range []struct {
		row int
		key func(string) string
	}{
		{0, func(k string) string { return k + "x" }},
		{17, func(string) string { return "" }},
		{99, func(k string) string { return strings.Replace(k, "pfail=", "pfail=0", 1) }},
		{50, func(k string) string { return strings.TrimSuffix(k, ";policy=oracle") }},
	} {
		rows := genRows(100, 3, true)
		rows[c.row].Key = c.key(rows[c.row].Key)
		_, want := referenceNewShard(rows)
		_, got := NewShard(rows)
		if want == nil || got == nil {
			t.Fatalf("row %d: reference error %v, NewShard error %v", c.row, want, got)
		}
		if got.Error() != want.Error() {
			t.Fatalf("row %d: error\n%s\nwant\n%s", c.row, got, want)
		}
	}
}

// TestCellKeyMatchesReference pins the appender's spelling against the
// frozen Sprintf one over awkward values.
func TestCellKeyMatchesReference(t *testing.T) {
	for _, pf := range []float64{1e-05, 1.5e-4, 0.001, 1e21, 123456789, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()} {
		for _, g := range [][3]int{{16384, 4, 64}, {-1, 0, 1 << 40}} {
			for _, policy := range []string{"", "oracle"} {
				r := sweep.Row{Pfail: pf, GeomSize: g[0], GeomWays: g[1], GeomBlock: g[2],
					Scheme: "word", Victim: "10t", Granularity: "way", Policy: policy}
				got := string(appendCellKey([]byte("stale"), &r)[len("stale"):])
				want := referenceCellKey(pf, int64(g[0]), int64(g[1]), int64(g[2]), "word", "10t", "way", policy)
				if got != want {
					t.Fatalf("appendCellKey %q, reference %q", got, want)
				}
			}
		}
	}
}

// TestNewShardAllocatesPerColumn: NewShard allocates per column and
// per dictionary entry, never per row, so a 64 Ki-row shard costs no
// more allocations than a 1 Ki-row one beyond a small constant.
func TestNewShardAllocatesPerColumn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	allocs := func(n int) float64 {
		rows := genRows(n, 7, true)
		return testing.AllocsPerRun(3, func() {
			if _, err := NewShard(rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(DefaultShardRows)
	if large > small+8 {
		t.Fatalf("NewShard: %.0f allocs at 64 Ki rows, %.0f at 1 Ki: allocating per row", large, small)
	}
}

// TestWriteDirBadKeyLeavesNothing: a bad key in the last shard fails
// the streamed fold after earlier shards were written, and neither the
// target nor a temp directory survives.
func TestWriteDirBadKeyLeavesNothing(t *testing.T) {
	rows := genRows(100, 11, true)
	rows[99].Key += "x"
	parent := t.TempDir()
	dir := filepath.Join(parent, "colstore")
	err := WriteDir(dir, rows, 32)
	if err == nil || !strings.Contains(err.Error(), "row 3 key") {
		t.Fatalf("WriteDir: %v, want the last shard's row 3 key error", err)
	}
	if _, serr := os.Stat(dir); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("failed fold left %s behind (%v)", dir, serr)
	}
	entries, rerr := os.ReadDir(parent)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("failed fold left %s behind", e.Name())
	}
}
