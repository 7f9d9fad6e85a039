// Package colstore is the compact columnar shard format for finished
// sweep results and the aggregation layer on top of it. A sweep's JSONL
// checkpoint stores every row as a self-describing JSON object —
// perfect for streaming and resume, roughly 10x too large and entirely
// the wrong shape for fleet-scale slicing ("p99 IPC degradation by
// scheme over a million cells"). A colstore shard stores the same rows
// as columns: dictionary-compressed strings for the axis coordinates,
// zigzag-delta varints for the integers, raw little-endian bits (or an
// adaptive dictionary) for the floats, and a presence bitmap for the
// optional DVFS pointers — losslessly, because sweep.Row is a pure
// function of its cell coordinates and the canonical cell key can be
// reconstructed from the axis columns instead of being stored.
//
// Format contract (colv1). A shard file is
//
//	magic "colv1\x00"
//	column payloads, concatenated in schema order
//	footer: row count, then per column name/kind/offset/length
//	8-byte little-endian absolute footer offset
//
// and every encoding decision is a deterministic pure function of the
// row values, so encode → decode → re-encode is byte-identical and a
// shard's bytes never depend on worker count, shard layout or which
// entrypoint folded it. The magic is a versioned stream break exactly
// like the sweep engine's sparse-v1: a future layout change bumps it to
// colv2 and old shards are refused, never half-read.
//
// The decoder is adversarial-input safe: every allocation is bounded by
// the input length, varints must be minimally encoded, columns must
// tile the body exactly, and dictionaries must be in canonical
// first-appearance order with every entry used — arbitrary bytes either
// decode into a shard that re-encodes to the very same bytes, or fail
// cleanly.
package colstore

import (
	"fmt"
	"strconv"

	"vccmin/internal/sweep"
)

// DefaultShardRows is the fold chunk size: rows per shard file. Large
// enough that dictionaries and the footer amortize to noise, small
// enough that one shard's materialized columns stay cache-friendly.
const DefaultShardRows = 65536

// colClass is a column's logical type in the fixed colv1 schema.
type colClass uint8

const (
	classInt   colClass = iota // int64, zigzag-delta varints
	classStr                   // string, dictionary + indices
	classFloat                 // float64, raw bits or adaptive dictionary
	classOpt                   // optional float64, presence bitmap + raw bits
)

// colDef names one column of the fixed colv1 schema. The schema — the
// names, classes and order below — is part of the format: a decoder
// refuses any footer that does not spell it exactly, and changing it
// means a colv2 stream break.
type colDef struct {
	name  string
	class colClass
}

// schema mirrors sweep.Row field for field (JSON names), minus Key —
// the canonical cell key is reconstructed from the axis columns, which
// is both the biggest size win and a lossless-by-construction check:
// NewShard refuses any row whose stored key is not the canonical
// spelling of its coordinates.
var schema = []colDef{
	{"index", classInt},
	{"stream", classStr},
	{"pfail", classFloat},
	{"geom_size", classInt},
	{"geom_ways", classInt},
	{"geom_block", classInt},
	{"scheme", classStr},
	{"victim", classStr},
	{"granularity", classStr},
	{"seed", classInt},
	{"expected_capacity", classFloat},
	{"whole_cache_fail_prob", classFloat},
	{"mean_ipc", classFloat},
	{"baseline_ipc", classFloat},
	{"ipc_degradation", classFloat},
	{"measured_capacity", classFloat},
	{"unfit_trials", classInt},
	{"voltage", classFloat},
	{"frequency", classFloat},
	{"energy_per_instruction", classFloat},
	{"trials", classInt},
	{"benchmarks", classInt},
	{"policy", classStr},
	{"dvfs_performance", classFloat},
	{"dvfs_energy_per_instruction", classFloat},
	{"dvfs_switches", classOpt},
	{"dvfs_low_share", classOpt},
}

// strCol keeps a dictionary column in its encoded shape: the distinct
// values in first-appearance order plus one dictionary index per row.
// Queries group and filter on the indices without touching strings.
type strCol struct {
	dict []string
	idx  []uint32
}

func (c strCol) value(r int) string { return c.dict[c.idx[r]] }

// floatDictCol keeps a dictionary-encoded float column's encoded shape
// beside its values, as the decoder read it: the distinct values in
// first-appearance order and one index per row. The query layer uses
// the indices as shard-local ids without a per-row map probe.
type floatDictCol struct {
	dict []float64
	idx  []uint32
}

// optCol is an optional float column: present[r] says whether row r
// carries a value, vals[r] is meaningful only when it does.
type optCol struct {
	present []bool
	vals    []float64
}

// Shard holds one chunk of sweep rows column-wise, in checkpoint order.
// It is the in-memory form both of the encoder's input and the
// decoder's output, and the unit the query layer scans.
type Shard struct {
	rows   int
	ints   map[string][]int64
	strs   map[string]strCol
	floats map[string][]float64
	// fdicts holds the decoded dictionary-encoded float columns' shape;
	// it is empty for shards built by NewShard and never encoded.
	fdicts map[string]floatDictCol
	opts   map[string]optCol
}

// NumRows returns the shard's row count.
func (s *Shard) NumRows() int { return s.rows }

// appendCellKey appends r's canonical cell key, reconstructed from its
// axis fields, to b — the exact sweep.Cell.Key spelling, which is part
// of the on-disk contract there and therefore here too. Appending into
// one reused buffer keeps the per-row key check allocation-free.
func appendCellKey(b []byte, r *sweep.Row) []byte {
	b = append(b, "pfail="...)
	b = strconv.AppendFloat(b, r.Pfail, 'g', -1, 64)
	b = append(b, ";geom="...)
	b = strconv.AppendInt(b, int64(r.GeomSize), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(r.GeomWays), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(r.GeomBlock), 10)
	b = append(b, ";scheme="...)
	b = append(b, r.Scheme...)
	b = append(b, ";victim="...)
	b = append(b, r.Victim...)
	b = append(b, ";gran="...)
	b = append(b, r.Granularity...)
	if r.Policy != "" {
		b = append(b, ";policy="...)
		b = append(b, r.Policy...)
	}
	return b
}

// strBuilder fills one dictionary column: values in first-appearance
// order, one index per row. Axis columns come in long runs of one
// value, so the last value is checked before the map.
type strBuilder struct {
	col    strCol
	ids    map[string]uint32
	last   string
	lastID uint32
}

func newStrBuilder(n int) *strBuilder {
	return &strBuilder{col: strCol{idx: make([]uint32, n)}, ids: make(map[string]uint32)}
}

func (b *strBuilder) set(i int, v string) {
	if i == 0 || v != b.last {
		id, ok := b.ids[v]
		if !ok {
			id = uint32(len(b.col.dict))
			b.ids[v] = id
			b.col.dict = append(b.col.dict, v)
		}
		b.last, b.lastID = v, id
	}
	b.col.idx[i] = b.lastID
}

func newOptCol(n int) optCol {
	return optCol{present: make([]bool, n), vals: make([]float64, n)}
}

func (c optCol) set(i int, p *float64) {
	if p != nil {
		c.present[i] = true
		c.vals[i] = *p
	}
}

// get returns a fresh pointer to row i's value, or nil when absent.
func (c optCol) get(i int) *float64 {
	if !c.present[i] {
		return nil
	}
	v := c.vals[i]
	return &v
}

// NewShard builds a shard from rows, preserving their order. It errors
// if any row's Key is not the canonical spelling of its coordinates:
// the format does not store keys, so a non-canonical key is the one
// thing a shard could not round-trip.
//
// It walks the rows once, by pointer, filling every column in the same
// pass; the only allocations are the columns and their dictionaries,
// never one per row.
func NewShard(rows []sweep.Row) (*Shard, error) {
	n := len(rows)
	ints := func() []int64 { return make([]int64, n) }
	floats := func() []float64 { return make([]float64, n) }
	var (
		index, geomSize, geomWays, geomBlock = ints(), ints(), ints(), ints()
		seed, unfit, trials, benchmarks      = ints(), ints(), ints(), ints()

		stream, scheme, victim = newStrBuilder(n), newStrBuilder(n), newStrBuilder(n)
		gran, policy           = newStrBuilder(n), newStrBuilder(n)

		pfail, expCap, wholeFail, meanIPC  = floats(), floats(), floats(), floats()
		baseIPC, ipcDeg, measCap, voltage  = floats(), floats(), floats(), floats()
		freq, energy, dvfsPerf, dvfsEnergy = floats(), floats(), floats(), floats()

		switches, lowShare = newOptCol(n), newOptCol(n)

		key []byte
	)
	for i := range rows {
		r := &rows[i]
		key = appendCellKey(key[:0], r)
		if string(key) != r.Key {
			return nil, fmt.Errorf("colstore: row %d key %q is not the canonical cell key %q", i, r.Key, string(key))
		}
		index[i] = int64(r.Index)
		stream.set(i, r.Stream)
		pfail[i] = r.Pfail
		geomSize[i], geomWays[i], geomBlock[i] = int64(r.GeomSize), int64(r.GeomWays), int64(r.GeomBlock)
		scheme.set(i, r.Scheme)
		victim.set(i, r.Victim)
		gran.set(i, r.Granularity)
		seed[i] = r.Seed
		expCap[i] = r.ExpectedCapacity
		wholeFail[i] = r.WholeCacheFailProb
		meanIPC[i] = r.MeanIPC
		baseIPC[i] = r.BaselineIPC
		ipcDeg[i] = r.IPCDegradation
		measCap[i] = r.MeasuredCapacity
		unfit[i] = int64(r.UnfitTrials)
		voltage[i] = r.Voltage
		freq[i] = r.Frequency
		energy[i] = r.EnergyPerInstruction
		trials[i] = int64(r.Trials)
		benchmarks[i] = int64(r.Benchmarks)
		policy.set(i, r.Policy)
		dvfsPerf[i] = r.DVFSPerformance
		dvfsEnergy[i] = r.DVFSEnergyPerInst
		switches.set(i, r.DVFSSwitches)
		lowShare.set(i, r.DVFSLowShare)
	}
	return &Shard{
		rows: n,
		ints: map[string][]int64{
			"index": index, "geom_size": geomSize, "geom_ways": geomWays, "geom_block": geomBlock,
			"seed": seed, "unfit_trials": unfit, "trials": trials, "benchmarks": benchmarks,
		},
		strs: map[string]strCol{
			"stream": stream.col, "scheme": scheme.col, "victim": victim.col,
			"granularity": gran.col, "policy": policy.col,
		},
		floats: map[string][]float64{
			"pfail": pfail, "expected_capacity": expCap, "whole_cache_fail_prob": wholeFail,
			"mean_ipc": meanIPC, "baseline_ipc": baseIPC, "ipc_degradation": ipcDeg,
			"measured_capacity": measCap, "voltage": voltage, "frequency": freq,
			"energy_per_instruction": energy, "dvfs_performance": dvfsPerf,
			"dvfs_energy_per_instruction": dvfsEnergy,
		},
		opts: map[string]optCol{"dvfs_switches": switches, "dvfs_low_share": lowShare},
	}, nil
}

// Rows materializes the shard back into sweep rows, in stored order,
// with every Key reconstructed from the axis columns. For shards built
// by NewShard (directly or through a fold) the result is deep-equal to
// the input rows.
func (s *Shard) Rows() []sweep.Row {
	var (
		index, geomSize, geomWays, geomBlock = s.ints["index"], s.ints["geom_size"], s.ints["geom_ways"], s.ints["geom_block"]
		seed, unfit, trials, benchmarks      = s.ints["seed"], s.ints["unfit_trials"], s.ints["trials"], s.ints["benchmarks"]

		stream, scheme, victim = s.strs["stream"], s.strs["scheme"], s.strs["victim"]
		gran, policy           = s.strs["granularity"], s.strs["policy"]

		pfail, expCap, wholeFail = s.floats["pfail"], s.floats["expected_capacity"], s.floats["whole_cache_fail_prob"]
		meanIPC, baseIPC, ipcDeg = s.floats["mean_ipc"], s.floats["baseline_ipc"], s.floats["ipc_degradation"]
		measCap, voltage, freq   = s.floats["measured_capacity"], s.floats["voltage"], s.floats["frequency"]
		energy, dvfsPerf         = s.floats["energy_per_instruction"], s.floats["dvfs_performance"]
		dvfsEnergy               = s.floats["dvfs_energy_per_instruction"]

		switches, lowShare = s.opts["dvfs_switches"], s.opts["dvfs_low_share"]

		key []byte
	)
	out := make([]sweep.Row, s.rows)
	for i := range out {
		r := &out[i]
		r.Index = int(index[i])
		r.Stream = stream.value(i)
		r.Pfail = pfail[i]
		r.GeomSize, r.GeomWays, r.GeomBlock = int(geomSize[i]), int(geomWays[i]), int(geomBlock[i])
		r.Scheme = scheme.value(i)
		r.Victim = victim.value(i)
		r.Granularity = gran.value(i)
		r.Seed = seed[i]
		r.ExpectedCapacity = expCap[i]
		r.WholeCacheFailProb = wholeFail[i]
		r.MeanIPC = meanIPC[i]
		r.BaselineIPC = baseIPC[i]
		r.IPCDegradation = ipcDeg[i]
		r.MeasuredCapacity = measCap[i]
		r.UnfitTrials = int(unfit[i])
		r.Voltage = voltage[i]
		r.Frequency = freq[i]
		r.EnergyPerInstruction = energy[i]
		r.Trials = int(trials[i])
		r.Benchmarks = int(benchmarks[i])
		r.Policy = policy.value(i)
		r.DVFSPerformance = dvfsPerf[i]
		r.DVFSEnergyPerInst = dvfsEnergy[i]
		r.DVFSSwitches = switches.get(i)
		r.DVFSLowShare = lowShare.get(i)
		key = appendCellKey(key[:0], r)
		r.Key = string(key)
	}
	return out
}
