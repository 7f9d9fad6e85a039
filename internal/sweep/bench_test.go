package sweep

import (
	"testing"

	"vccmin/internal/geom"
	"vccmin/internal/sim"
)

// BenchmarkSweepCell times one reference cell per scheme through sweep.Run
// at one worker: pfail 1e-3, the 32 KB 8-way L1, base seed 1 and the
// default three benchmarks, three trials and 50k instructions. Nearly
// all of the time is sim: the recording and its replays on the
// baseline and scheme machines.
func BenchmarkSweepCell(b *testing.B) {
	for _, scheme := range []sim.Scheme{sim.WordDisable, sim.BlockDisable} {
		spec := Spec{
			Pfails:     []float64{1e-3},
			Geometries: []geom.Geometry{geom.MustNew(32*1024, 8, 64)},
			Schemes:    []sim.Scheme{scheme},
			BaseSeed:   1,
			Workers:    1,
		}
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(spec, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
