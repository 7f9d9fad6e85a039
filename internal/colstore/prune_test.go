package colstore

// Column pruning: a pruned decode must reproduce the needed columns
// bit-for-bit and keep all structural validation, and a Dir-backed
// query must answer byte-identically whether it decodes 27 columns or 3.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestDecodeColumnsPruned(t *testing.T) {
	s, err := NewShard(genRows(3000, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	enc := s.EncodeBytes()

	need := map[string]bool{
		"pfail": true, "scheme": true, "ipc_degradation": true,
		"seed": true, "dvfs_switches": true,
	}
	pruned, err := DecodeColumns(enc, need)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.rows != s.rows {
		t.Fatalf("pruned shard has %d rows, want %d", pruned.rows, s.rows)
	}
	if !reflect.DeepEqual(pruned.floats["pfail"], s.floats["pfail"]) {
		t.Error("pruned pfail column differs from the full decode")
	}
	if !reflect.DeepEqual(pruned.strs["scheme"], s.strs["scheme"]) {
		t.Error("pruned scheme column differs from the full decode")
	}
	if !reflect.DeepEqual(pruned.ints["seed"], s.ints["seed"]) {
		t.Error("pruned seed column differs from the full decode")
	}
	if !reflect.DeepEqual(pruned.opts["dvfs_switches"], s.opts["dvfs_switches"]) {
		t.Error("pruned dvfs_switches column differs from the full decode")
	}
	if pruned.ints["trials"] != nil || pruned.strs["victim"].idx != nil || pruned.floats["voltage"] != nil {
		t.Error("pruned decode materialized columns outside the need set")
	}

	// nil need is the full decode: the shard round-trips.
	full, err := DecodeColumns(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.EncodeBytes(), enc) {
		t.Error("DecodeColumns(nil) does not round-trip to the original bytes")
	}
}

// TestDecodeColumnsKeepsStructuralChecks corrupts bytes outside the
// needed columns' payloads — the footer and the body tiling — and
// requires the pruned decode to still refuse them.
func TestDecodeColumnsKeepsStructuralChecks(t *testing.T) {
	s, err := NewShard(genRows(200, 9, false))
	if err != nil {
		t.Fatal(err)
	}
	enc := s.EncodeBytes()
	need := map[string]bool{"pfail": true}

	truncated := enc[:len(enc)-9] // drop the trailer
	if _, err := DecodeColumns(truncated, need); err == nil {
		t.Error("pruned decode accepted a shard with no trailer")
	}
	badMagic := append([]byte("colv2\x00"), enc[6:]...)
	if _, err := DecodeColumns(badMagic, need); err == nil {
		t.Error("pruned decode accepted a colv2 magic")
	}
}

func TestDirQueryPruned(t *testing.T) {
	rows := genRows(10_000, 21, true)
	dir := t.TempDir() + "/shards"
	if err := WriteDir(dir, rows, 4096); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := ShardsOf(rows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lo := 2e-4
	specs := []Spec{
		{GroupBy: []string{"pfail", "scheme"}, Metrics: []string{"ipc_degradation", "energy_per_instruction"}},
		{GroupBy: []string{"geometry"}, Metrics: []string{"mean_ipc", "dvfs_low_share"},
			Where: map[string]string{"policy": "none"}, PfailMin: &lo},
		{Metrics: []string{"voltage"}},
	}
	for i, q := range specs {
		fromDir, err := Query(d, q)
		if err != nil {
			t.Fatalf("spec %d over Dir: %v", i, err)
		}
		fromMem, err := Query(mem, q)
		if err != nil {
			t.Fatalf("spec %d over Mem: %v", i, err)
		}
		dj, _ := json.Marshal(fromDir)
		mj, _ := json.Marshal(fromMem)
		if !bytes.Equal(dj, mj) {
			t.Errorf("spec %d: pruned Dir answer differs from the full Mem answer\ndir: %.300s\nmem: %.300s", i, dj, mj)
		}
	}
}
