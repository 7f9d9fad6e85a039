package colstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// benchSink keeps the compiler from eliding the encode.
var benchSink int

// BenchmarkShardEncode measures encoding one full default-size shard
// (64k mixed classic/DVFS rows) to canonical colv1 bytes — the fold's
// hot loop.
func BenchmarkShardEncode(b *testing.B) {
	s, err := NewShard(genRows(DefaultShardRows, 7, true))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(s.EncodeBytes())
	}
}

// BenchmarkShardDecode measures the reverse path: canonical bytes back
// into a queryable shard, with all canonical-form checks on.
func BenchmarkShardDecode(b *testing.B) {
	s, err := NewShard(genRows(DefaultShardRows, 7, true))
	if err != nil {
		b.Fatal(err)
	}
	enc := s.EncodeBytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryGroupBy1M measures a two-axis group-by with two metrics
// over a million-row result set in default-size shards — the
// interactive-tier serving shape POST /v1/query pays after the fold.
func BenchmarkQueryGroupBy1M(b *testing.B) {
	src, err := ShardsOf(genRows(1<<20, 7, true), DefaultShardRows)
	if err != nil {
		b.Fatal(err)
	}
	q := Spec{
		GroupBy: []string{"pfail", "scheme"},
		Metrics: []string{"ipc_degradation", "energy_per_instruction"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Query(src, q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Matched
	}
}

// BenchmarkQueryDir measures the read path a folded sweep's queries
// take: 2^20 rows in 16 default-size shard files on disk, read through
// OpenDir, grouped by two axes with two metrics under one Where filter
// and a pfail range. Each shard's rows are drawn from their own seed,
// so set-up holds one shard's rows at a time.
func BenchmarkQueryDir(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < 16; i++ {
		s, err := NewShard(genRows(DefaultShardRows, int64(7+i), true))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardFileName(i)), s.EncodeBytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	src, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := 2.5e-4, 1e-3
	q := Spec{
		GroupBy:  []string{"pfail", "scheme"},
		Metrics:  []string{"ipc_degradation", "energy_per_instruction"},
		Where:    map[string]string{"victim": "none"},
		PfailMin: &lo,
		PfailMax: &hi,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Query(src, q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Matched
	}
}

// BenchmarkShardFold measures the fold's write path for one full
// default-size shard: rows to columns (NewShard, with its per-row
// canonical-key check) and columns to canonical colv1 bytes.
func BenchmarkShardFold(b *testing.B) {
	rows := genRows(DefaultShardRows, 7, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewShard(rows)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = len(s.EncodeBytes())
	}
}

// BenchmarkAggregate times aggregation alone: one 262,144-value sample
// in 16 segments, the shape of one group×metric of a million-row query.
// "continuous" (0.2 + U[0,1), like mean_ipc) takes the radix path;
// "distinct8" (eight values, like energy_per_instruction within a pfail
// group) takes the count table.
func BenchmarkAggregate(b *testing.B) {
	const n, parts = 1 << 18, 16
	rng := rand.New(rand.NewSource(7))
	var eight [8]float64
	for i := range eight {
		eight[i] = 0.2 + rng.Float64()
	}
	for _, bc := range []struct {
		name string
		val  func() float64
	}{
		{"continuous", func() float64 { return 0.2 + rng.Float64() }},
		{"distinct8", func() float64 { return eight[rng.Intn(len(eight))] }},
	} {
		segs := make([][]float64, parts)
		for i := range segs {
			segs[i] = make([]float64, n/parts)
			for j := range segs[i] {
				segs[i][j] = bc.val()
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			var sc aggScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = aggregate("m", segs, &sc).Count
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
