package sim

import "testing"

// BenchmarkPipelineReplay times the core and the cache hierarchy without
// the workload generator, which BenchmarkPipelineThroughput mixes in: one
// Replayer replays a recorded crafty stream on the low-voltage
// block-disable machine (32 KB 8-way L1s at pfail 1e-3), assembling the
// machine each run as a sweep trial does. ns/instr divides by the warm-up
// and measured instructions together.
func BenchmarkPipelineReplay(b *testing.B) {
	opts := Options{Benchmark: "crafty", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(1), Instructions: 50_000, Seed: 1}
	rec, err := Record(opts)
	if err != nil {
		b.Fatal(err)
	}
	var p Replayer
	// The first run allocates the L2 the timed runs reuse.
	if _, err := p.Run(opts, rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(opts, rec); err != nil {
			b.Fatal(err)
		}
	}
	instrs := opts.Instructions + opts.Instructions/2 // the default warm-up is half
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
}
