package colstore

// The aggregation paths (count table, radix-sorted keys, and the
// sort.Float64s fallback) against a frozen reference that concatenates
// the segments, sorts them with sort.Float64s, sums in that order and
// reads stats.QuantileSorted: every field must match bit-for-bit, and
// the radix-sorted keys must be the reference's order element by
// element.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vccmin/internal/stats"
)

// referenceAggregate is the frozen definition of an aggregate.
func referenceAggregate(metric string, segs [][]float64) Aggregate {
	var vals []float64
	for _, s := range segs {
		vals = append(vals, s...)
	}
	a := Aggregate{Metric: metric, Count: len(vals)}
	if len(vals) == 0 {
		return a
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	a.Mean = sum / float64(len(vals))
	a.Min = vals[0]
	a.Max = vals[len(vals)-1]
	a.P50 = stats.QuantileSorted(vals, 0.50)
	a.P90 = stats.QuantileSorted(vals, 0.90)
	a.P99 = stats.QuantileSorted(vals, 0.99)
	return a
}

// aggregateMismatch aggregates segs with sc and describes how the
// answer departs from the reference, or returns "". Fields compare by
// bit pattern (NaN payloads and the sign of zero included), and the
// JSON encodings, where both encode, byte for byte.
func aggregateMismatch(segs [][]float64, sc *aggScratch) string {
	want := referenceAggregate("m", segs)
	got := aggregate("m", segs, sc)
	if got.Metric != want.Metric || got.Count != want.Count {
		return fmt.Sprintf("metric/count %s/%d, reference %s/%d", got.Metric, got.Count, want.Metric, want.Count)
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"mean", got.Mean, want.Mean}, {"min", got.Min, want.Min}, {"max", got.Max, want.Max},
		{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v (%#x), reference %v (%#x)",
				f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	gj, gerr := json.Marshal(got)
	wj, werr := json.Marshal(want)
	if (gerr == nil) != (werr == nil) || !bytes.Equal(gj, wj) {
		return fmt.Sprintf("JSON %s (%v), reference %s (%v)", gj, gerr, wj, werr)
	}
	return sortKeysMismatch(segs, sc)
}

// sortKeysMismatch holds the radix sort to sort.Float64s element by
// element, so a misordering that leaves the summary fields intact
// still shows: where sortKeys takes the sample (no NaN, no −0), its
// keys must be exactly the sorted reference's.
func sortKeysMismatch(segs [][]float64, sc *aggScratch) string {
	var want []float64
	for _, s := range segs {
		want = append(want, s...)
	}
	if len(want) == 0 {
		return ""
	}
	keys := sc.sortKeys(segs, len(want))
	if keys == nil {
		return ""
	}
	sort.Float64s(want)
	for i, w := range want {
		if k := toKey(math.Float64bits(w)); keys[i] != k {
			return fmt.Sprintf("sortKeys[%d] = %#x (%v), sort.Float64s %#x (%v)", i, keys[i], fromKey(keys[i]), k, w)
		}
	}
	return ""
}

// aggShape is one flat sample the differential battery cuts into
// segments.
type aggShape struct {
	name string
	vals []float64
}

// fromPalette draws n values from palette, each palette value at least
// once (when n allows) so the distinct count is exact.
func fromPalette(rng *rand.Rand, palette []float64, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if i < len(palette) {
			vals[i] = palette[i]
		} else {
			vals[i] = palette[rng.Intn(len(palette))]
		}
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// continuous returns n values 0.2 + U[0,1), the shape of mean_ipc.
func continuous(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.2 + rng.Float64()
	}
	return vals
}

// aggregateShapes lists the samples every aggregation path and every
// boundary between them must get right.
func aggregateShapes(rng *rand.Rand) []aggShape {
	var shapes []aggShape
	add := func(name string, vals []float64) { shapes = append(shapes, aggShape{name, vals}) }

	add("continuous", continuous(rng, 5000))
	palette := func(k int) []float64 {
		p := make([]float64, k)
		for i := range p {
			p[i] = (rng.Float64() - 0.3) * 4
		}
		return p
	}
	add("distinct8", fromPalette(rng, palette(8), 3000))
	add("distinct-limit", fromPalette(rng, palette(maxDistinct), 1000))
	add("distinct-limit+1", fromPalette(rng, palette(maxDistinct+1), 1000))
	// The value past the limit arrives last, after the table is full.
	late := fromPalette(rng, palette(maxDistinct), 999)
	add("distinct-limit+1-last", append(late, 1e9))
	add("single", fromPalette(rng, []float64{0.75}, 300))
	// Values a few ulps apart differ only in their low key bytes, so
	// every radix pass must order them.
	ulps := make([]float64, 2000)
	for i := range ulps {
		ulps[i] = math.Float64frombits(math.Float64bits(1.5) + uint64(rng.Intn(1000)))
	}
	add("ulps-apart", ulps)
	for _, n := range []int{minKeyed - 1, minKeyed, minKeyed + 1} {
		add(fmt.Sprintf("continuous/n=%d", n), continuous(rng, n))
		add(fmt.Sprintf("distinct8/n=%d", n), fromPalette(rng, palette(8), n))
	}

	inf, sub := math.Inf(1), math.SmallestNonzeroFloat64
	extremes := []float64{inf, -inf, sub, -sub, 3 * sub, math.MaxFloat64, -math.MaxFloat64, 0, 1}
	add("inf-subnormal/distinct", fromPalette(rng, extremes, 500))
	wide := continuous(rng, 500)
	for i := range wide {
		if i%5 == 0 {
			wide[i] = extremes[rng.Intn(len(extremes))]
		} else {
			wide[i] *= float64(rng.Intn(3)-1) * math.Exp(float64(rng.Intn(1400)-700))
		}
	}
	add("inf-subnormal/continuous", wide)

	nan := continuous(rng, 300)
	nan[137] = math.NaN()
	add("nan/continuous", nan)
	add("nan/distinct", fromPalette(rng, []float64{1, 2, math.NaN()}, 300))
	negz := continuous(rng, 300)
	negz[59], negz[60] = math.Copysign(0, -1), 0
	add("negzero/continuous", negz)
	add("negzero/distinct", fromPalette(rng, []float64{math.Copysign(0, -1), 0, 1}, 300))

	// The cases the radix sort was first held to sort.Float64s with:
	// large samples with duplicates, negatives and infinities, a tiny
	// one, and NaN- and negative-zero-bearing ones.
	for trial := 0; trial < 4; trial++ {
		vals := make([]float64, 128+rng.Intn(5000))
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = float64(rng.Intn(4))
			case 1:
				vals[i] = -rng.Float64() * 1e300
			case 2:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				vals[i] = (rng.Float64() - 0.5) * math.Exp(float64(rng.Intn(600)-300))
			}
		}
		add(fmt.Sprintf("mixed/%d", trial), vals)
	}
	add("tiny", []float64{3, 1, 2})
	nan, negz = make([]float64, 300), make([]float64, 300)
	for i := range nan {
		nan[i], negz[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	nan[137] = math.NaN()
	negz[59], negz[60] = math.Copysign(0, -1), 0
	add("normal/nan", nan)
	add("normal/negzero", negz)
	return shapes
}

// segment cuts vals into segments of the given lengths (a length past
// what remains takes the rest); whatever remains forms the last one.
func segment(vals []float64, lens []int) [][]float64 {
	var segs [][]float64
	for _, l := range lens {
		l = min(l, len(vals))
		segs = append(segs, vals[:l:l])
		vals = vals[l:]
	}
	return append(segs, vals)
}

func TestAggregateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var sc aggScratch // shared, as finalize shares it across samples
	for _, sh := range aggregateShapes(rng) {
		n := len(sh.vals)
		many := make([]int, 15)
		gaps := make([]int, 0, 24)
		for i := range many {
			many[i] = rng.Intn(n/8 + 1)
			gaps = append(gaps, many[i])
			if i%2 == 0 {
				gaps = append(gaps, 0)
			}
		}
		for _, cut := range []struct {
			name string
			lens []int
		}{
			{"one", nil},
			{"many", many},
			{"empty-between", gaps},
			{"empty-first", []int{0, 0, n / 2}},
		} {
			if msg := aggregateMismatch(segment(sh.vals, cut.lens), &sc); msg != "" {
				t.Errorf("%s, %s segments (n=%d): %s", sh.name, cut.name, n, msg)
			}
		}
	}
	if msg := aggregateMismatch(nil, &sc); msg != "" {
		t.Errorf("no segments: %s", msg)
	}
	if msg := aggregateMismatch([][]float64{{}, {}}, &sc); msg != "" {
		t.Errorf("empty segments only: %s", msg)
	}
}
