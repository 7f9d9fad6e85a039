package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vccmin/internal/sweep"
)

// testKey mirrors sweep.Cell.Key's canonical spelling independently of
// cellKey, so a drift in either implementation fails a test instead of
// cancelling out.
func testKey(r sweep.Row) string {
	key := fmt.Sprintf("pfail=%s;geom=%dx%dx%d;scheme=%s;victim=%s;gran=%s",
		strconv.FormatFloat(r.Pfail, 'g', -1, 64), r.GeomSize, r.GeomWays, r.GeomBlock,
		r.Scheme, r.Victim, r.Granularity)
	if r.Policy != "" {
		key += ";policy=" + r.Policy
	}
	return key
}

// genRows builds n synthetic sweep rows with canonical keys: a few
// distinct values per axis (so the dictionary and adaptive-float paths
// engage), full-entropy measurement columns (so the raw-float path
// engages), and, when withDVFS is set, a mix of classic and scheduled
// rows (so the optional columns carry a real presence pattern).
func genRows(n int, seed int64, withDVFS bool) []sweep.Row {
	rng := rand.New(rand.NewSource(seed))
	pfails := []float64{1e-4, 2.5e-4, 1e-3, 5e-3}
	geoms := [][3]int{{32768, 8, 64}, {16384, 4, 64}, {65536, 16, 128}}
	schemes := []string{"baseline", "word", "block"}
	victims := []string{"none", "10t"}
	grans := []string{"block", "way"}
	policies := []string{"", "oracle", "reactive"}
	rows := make([]sweep.Row, n)
	for i := range rows {
		g := geoms[rng.Intn(len(geoms))]
		r := sweep.Row{
			Index:  i,
			Stream: sweep.StreamVersion,
			Pfail:  pfails[rng.Intn(len(pfails))],

			GeomSize: g[0], GeomWays: g[1], GeomBlock: g[2],
			Scheme:      schemes[rng.Intn(len(schemes))],
			Victim:      victims[rng.Intn(len(victims))],
			Granularity: grans[rng.Intn(len(grans))],
			Seed:        rng.Int63(),

			ExpectedCapacity:   rng.Float64(),
			WholeCacheFailProb: rng.Float64() / 100,
			MeanIPC:            2 * rng.Float64(),
			BaselineIPC:        2.5, // constant: single-entry float dictionary
			IPCDegradation:     rng.Float64() / 10,
			MeasuredCapacity:   rng.Float64(),
			UnfitTrials:        rng.Intn(4),
			Voltage:            0.7 + rng.Float64()/10,
			Frequency:          0.5 + rng.Float64()/2,

			EnergyPerInstruction: rng.Float64(),
			Trials:               3,
			Benchmarks:           3,
		}
		if withDVFS {
			r.Policy = policies[rng.Intn(len(policies))]
		}
		if r.Policy != "" {
			r.DVFSPerformance = rng.Float64()
			r.DVFSEnergyPerInst = rng.Float64()
			sw := float64(rng.Intn(10))
			ls := rng.Float64()
			r.DVFSSwitches = &sw
			r.DVFSLowShare = &ls
		}
		r.Key = testKey(r)
		rows[i] = r
	}
	return rows
}

func mustShard(t testing.TB, rows []sweep.Row) *Shard {
	t.Helper()
	s, err := NewShard(rows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip proves the core lossless contract on a mixed
// classic/scheduled population: encode → decode → re-encode is
// byte-identical and the materialized rows are deep-equal to the input,
// reconstructed keys included.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rows     []sweep.Row
		withDVFS bool
	}{
		{"empty", nil, false},
		{"single", genRows(1, 1, false), false},
		{"classic", genRows(500, 2, false), false},
		{"mixed_dvfs", genRows(1000, 3, true), true},
		{"bitmap_odd_tail", genRows(257, 4, true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustShard(t, tc.rows)
			enc := s.EncodeBytes()
			back, err := Decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if re := back.EncodeBytes(); !bytes.Equal(re, enc) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(enc))
			}
			rows := back.Rows()
			if len(tc.rows) == 0 {
				if len(rows) != 0 {
					t.Fatalf("empty shard materialized %d rows", len(rows))
				}
				return
			}
			if !reflect.DeepEqual(rows, tc.rows) {
				t.Fatal("materialized rows differ from the input")
			}
		})
	}
}

// TestRoundTripJSONEquivalence proves the columnar form is lossless at
// the serialization contract level too: the JSONL a checkpoint would
// hold and the JSONL of the decoded rows are byte-identical.
func TestRoundTripJSONEquivalence(t *testing.T) {
	rows := genRows(200, 9, true)
	back, err := Decode(mustShard(t, rows).EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	want, got := jsonl(t, rows), jsonl(t, back.Rows())
	if !bytes.Equal(want, got) {
		t.Fatal("decoded rows serialize differently from the input rows")
	}
}

// allRows materializes every shard's rows in order.
func allRows(t *testing.T, src Source) []sweep.Row {
	t.Helper()
	var out []sweep.Row
	if err := src.Shards(func(s *Shard) error {
		out = append(out, s.Rows()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func jsonl(t *testing.T, rows []sweep.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestNewShardRejectsNonCanonicalKey: the format does not store keys,
// so a row whose key is not the canonical spelling of its coordinates
// could not round-trip and must be refused.
func TestNewShardRejectsNonCanonicalKey(t *testing.T) {
	rows := genRows(3, 5, false)
	rows[1].Key = rows[1].Key + "x"
	if _, err := NewShard(rows); err == nil {
		t.Fatal("NewShard accepted a non-canonical key")
	}
	rows = genRows(3, 5, false)
	rows[2].Key = ""
	if _, err := NewShard(rows); err == nil {
		t.Fatal("NewShard accepted an empty key")
	}
}

// TestDecodeRejectsCorruption walks every byte of a real shard, flips
// it, and requires the mutation to either fail cleanly or decode to a
// shard that re-encodes to exactly the mutated bytes (the canonical-form
// contract: Decode accepts nothing the encoder could not have written).
// Truncations at every length are held to the same standard.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := mustShard(t, genRows(20, 6, true)).EncodeBytes()
	if _, err := Decode(enc); err != nil {
		t.Fatalf("pristine shard: %v", err)
	}
	for i := range enc {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x41
		s, err := Decode(mut)
		if err != nil {
			continue
		}
		if re := s.EncodeBytes(); !bytes.Equal(re, mut) {
			t.Fatalf("byte %d flipped: decode accepted non-canonical bytes", i)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

// TestDecodeRejectsBadMagic pins the versioned stream break: a colv2
// header (or arbitrary bytes) fails with ErrBadMagic, the refusable
// sentinel callers branch on.
func TestDecodeRejectsBadMagic(t *testing.T) {
	enc := mustShard(t, genRows(4, 7, false)).EncodeBytes()
	mut := append([]byte{}, enc...)
	copy(mut, "colv2\x00")
	_, err := Decode(mut)
	if err == nil || !strings.Contains(err.Error(), "not a colv1 shard") {
		t.Fatalf("colv2 header: got %v, want ErrBadMagic", err)
	}
}

// TestShardsOf checks the fold chunking: order preserved, chunk sizes
// exact, concatenated rows identical to the input.
func TestShardsOf(t *testing.T) {
	rows := genRows(25, 8, true)
	src, err := ShardsOf(rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(src) != 4 {
		t.Fatalf("25 rows in 7-row shards: %d shards, want 4", len(src))
	}
	for i, want := range []int{7, 7, 7, 4} {
		if src[i].rows != want {
			t.Fatalf("shard %d has %d rows, want %d", i, src[i].rows, want)
		}
	}
	if back := allRows(t, src); !reflect.DeepEqual(back, rows) {
		t.Fatal("concatenated shard rows differ from the input")
	}
}

// TestWriteDirFold covers the on-disk fold: JSONL → shard directory →
// Dir source, order preserved (including a deliberately shuffled,
// resume-like checkpoint order), idempotent re-fold.
func TestWriteDirFold(t *testing.T) {
	rows := genRows(100, 11, true)
	// A resume-like checkpoint is not in cell-index order; the fold must
	// preserve whatever order the file has.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })

	dir := t.TempDir()
	src := filepath.Join(dir, "rows.jsonl")
	if err := os.WriteFile(src, jsonl(t, rows), 0o644); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "colstore")
	n, err := FoldJSONL(src, shardDir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("fold reported %d rows, want %d", n, len(rows))
	}
	d, err := OpenDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.files) != 4 {
		t.Fatalf("100 rows in 32-row shards: %d files, want 4", len(d.files))
	}
	if back := allRows(t, d); !reflect.DeepEqual(back, rows) {
		t.Fatal("folded rows differ from the checkpoint (order must be preserved)")
	}

	// Idempotent: a second fold over different rows is a no-op because
	// the directory exists — first writer wins, bytes are deterministic.
	before, err := os.ReadFile(filepath.Join(shardDir, d.files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(shardDir, genRows(5, 99, false), 32); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(shardDir, d.files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("re-fold of an existing directory rewrote shard bytes")
	}
}

// TestOpenDirEmpty: a directory with no shards is a valid empty result
// set, and querying it answers with zero rows.
func TestOpenDirEmpty(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(d, Spec{Metrics: []string{"mean_ipc"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || res.Matched != 0 || len(res.Groups) != 0 {
		t.Fatalf("empty dir query: %+v", res)
	}
}

// TestDirRejectsCorruptShard: a damaged shard file surfaces as a named
// decode error, never a partial answer.
func TestDirRejectsCorruptShard(t *testing.T) {
	dir := t.TempDir()
	enc := mustShard(t, genRows(10, 13, false)).EncodeBytes()
	if err := os.WriteFile(filepath.Join(dir, "000000.colv1"), enc[:len(enc)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Query(d, Spec{Metrics: []string{"mean_ipc"}}); err == nil {
		t.Fatal("query over a truncated shard file succeeded")
	}
}

// TestSpecCheck pins the validation surface of the query spec.
func TestSpecCheck(t *testing.T) {
	lo, hi := 1e-3, 1e-4
	nan, inf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	bad := []Spec{
		{Metrics: nil},
		{Metrics: []string{"no_such_metric"}},
		{Metrics: []string{"mean_ipc", "mean_ipc"}},
		{GroupBy: []string{"no_such_axis"}, Metrics: []string{"mean_ipc"}},
		{GroupBy: []string{"scheme", "scheme"}, Metrics: []string{"mean_ipc"}},
		{GroupBy: []string{"pfail", "geometry", "scheme", "victim", "granularity"}, Metrics: []string{"mean_ipc"}},
		{Where: map[string]string{"bogus": "x"}, Metrics: []string{"mean_ipc"}},
		{PfailMin: &lo, PfailMax: &hi, Metrics: []string{"mean_ipc"}},
		{PfailMin: &nan, Metrics: []string{"mean_ipc"}},
		{PfailMax: &nan, Metrics: []string{"mean_ipc"}},
		{PfailMin: &inf, Metrics: []string{"mean_ipc"}},
		{PfailMax: &inf, Metrics: []string{"mean_ipc"}},
		{PfailMin: &ninf, PfailMax: &hi, Metrics: []string{"mean_ipc"}},
	}
	for i, q := range bad {
		if err := q.Check(); err == nil {
			t.Errorf("spec %d passed Check: %+v", i, q)
		}
	}
	ok := Spec{GroupBy: []string{"pfail", "scheme"}, Metrics: []string{"mean_ipc"},
		Where: map[string]string{"victim": "none"}, PfailMin: &hi, PfailMax: &lo}
	if err := ok.Check(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestQuerySemantics hand-checks the aggregation on a tiny fixed result
// set: grouping, the "all" group, where filters, the pfail range, the
// policy "none" rendering, and the optional metric's smaller count.
func TestQuerySemantics(t *testing.T) {
	rows := genRows(200, 17, true)
	src, err := ShardsOf(rows, 64)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("all_group", func(t *testing.T) {
		res, err := Query(src, Spec{Metrics: []string{"mean_ipc", "dvfs_switches"}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != 200 || res.Matched != 200 {
			t.Fatalf("rows/matched = %d/%d, want 200/200", res.Rows, res.Matched)
		}
		if len(res.Groups) != 1 || res.Groups[0].Key != "all" {
			t.Fatalf("groups = %+v, want one group 'all'", res.Groups)
		}
		g := res.Groups[0]
		if g.Cells != 200 || g.Aggregates[0].Count != 200 {
			t.Fatalf("all group cells/count = %d/%d", g.Cells, g.Aggregates[0].Count)
		}
		// dvfs_switches only exists on scheduled rows.
		scheduled := 0
		for _, r := range rows {
			if r.DVFSSwitches != nil {
				scheduled++
			}
		}
		if g.Aggregates[1].Count != scheduled {
			t.Fatalf("dvfs_switches count = %d, want %d scheduled rows", g.Aggregates[1].Count, scheduled)
		}
	})

	t.Run("group_by_policy_renders_none", func(t *testing.T) {
		res, err := Query(src, Spec{GroupBy: []string{"policy"}, Metrics: []string{"mean_ipc"}})
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, g := range res.Groups {
			keys[g.Key] = true
		}
		if !keys["policy=none"] {
			t.Fatalf("classic rows missing from policy axis: groups %v", keys)
		}
		if keys["policy="] {
			t.Fatal("empty policy leaked as an invisible axis value")
		}
	})

	t.Run("where_and_range", func(t *testing.T) {
		min := 2e-4
		res, err := Query(src, Spec{
			GroupBy:  []string{"pfail"},
			Metrics:  []string{"expected_capacity"},
			Where:    map[string]string{"scheme": "block"},
			PfailMin: &min,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range rows {
			if r.Scheme == "block" && r.Pfail >= min {
				want++
			}
		}
		if res.Matched != want {
			t.Fatalf("matched %d, want %d", res.Matched, want)
		}
		for _, g := range res.Groups {
			v, err := strconv.ParseFloat(strings.TrimPrefix(g.Key, "pfail="), 64)
			if err != nil || v < min {
				t.Fatalf("group %q escaped the pfail range", g.Key)
			}
		}
	})

	t.Run("numeric_group_order", func(t *testing.T) {
		res, err := Query(src, Spec{GroupBy: []string{"pfail"}, Metrics: []string{"mean_ipc"}})
		if err != nil {
			t.Fatal(err)
		}
		var prev float64
		for i, g := range res.Groups {
			v, err := strconv.ParseFloat(strings.TrimPrefix(g.Key, "pfail="), 64)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && v <= prev {
				t.Fatalf("pfail groups not in numeric order: %v", res.Groups)
			}
			prev = v
		}
	})
}

// TestQueryOrderIndependence is the cache-identity invariant: the same
// result set in any row order and any shard layout answers with
// byte-identical JSON — what lets a checkpoint-backed query and an
// inline-computed one share one content address.
func TestQueryOrderIndependence(t *testing.T) {
	rows := genRows(300, 23, true)
	q := Spec{GroupBy: []string{"scheme", "pfail"}, Metrics: []string{"mean_ipc", "dvfs_low_share", "unfit_trials"}}

	marshal := func(rows []sweep.Row, shardRows int) []byte {
		src, err := ShardsOf(rows, shardRows)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Query(src, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := marshal(rows, 64)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]sweep.Row{}, rows...)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		shardRows := 1 + rng.Intn(300)
		if got := marshal(shuffled, shardRows); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (shardRows=%d): answer depends on row order or shard layout", trial, shardRows)
		}
	}
}
