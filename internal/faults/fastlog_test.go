package faults

import (
	"math"
	"testing"
)

// fastLogMaxErr bounds |fastLog(u) − math.Log(u)| for u in [2⁻¹⁰⁰⁰, 1),
// with a margin of more than ten. The dropped atanh tail is
// 2(z¹³/13 + z¹⁵/15 + …) ≤ 2z¹³/13 · 1/(1−z²), which at z = 1/3 (the
// top of the unreduced mantissa range) is 1.09e-7. Rounding adds less
// than 1e-12 on top: ln2's representation error times an exponent of
// at most 1000 is 2.3e-14, the two roundings of e·ln2 and the final sum
// are each below 8e-14 at |ln u| ≤ 694, z and the series carry a few
// ulps of a value below 0.7, and math.Log itself is within one ulp. The
// worst error measured over 2·10⁷ uniform draws is 1.07e-7.
const fastLogMaxErr = 1.5e-6

// fastLog is the reference copy of the log injectSparse inlines by hand
// (its call would be beyond the inliner's budget): ln(u) for u in
// [2⁻¹⁰⁰⁰, 1) to within fastLogMaxErr. It is the classic
// exponent-plus-mantissa decomposition with the atanh series
// 2z(1 + z²/3 + z⁴/5 + z⁶/7 + z⁸/9 + z¹⁰/11), z = (m-1)/(m+1); over the
// unreduced mantissa range [1, 2), z ≤ 1/3, so the dropped terms stay
// near 1e-7 (skipping the usual √2 reduction trades two series terms
// for an unpredictable branch). It is wrong for subnormal u, whose
// exponent field does not carry the scale. The intermediate
// conversions pin each step to float64, keeping the result
// bit-identical whether or not the platform fuses multiply-adds. The
// sparse stream depends on these exact bits: refSparseOneAtATime draws
// through this copy, and FuzzSamplerBatched holds injectSparse to it.
func fastLog(u float64) float64 {
	bits := math.Float64bits(u)
	e := float64(int((bits>>52)&0x7ff) - 1023)
	m := math.Float64frombits((bits & 0x000fffffffffffff) | 0x3ff0000000000000)
	z := (m - 1) / (m + 1)
	z2 := float64(z * z)
	s := float64(1.0/9 + z2*(1.0/11))
	s = float64(1.0/7 + z2*s)
	s = float64(1.0/5 + z2*s)
	s = float64(1.0/3 + z2*s)
	s = float64(1 + z2*s)
	return float64(e*ln2) + float64(2*z*s)
}

// TestFastLogAccuracy: the polynomial log the sparse samplers inline
// stays within fastLogMaxErr of math.Log across the uniform draw's full
// range and at the exponent extremes.
func TestFastLogAccuracy(t *testing.T) {
	check := func(u float64) {
		t.Helper()
		if diff := math.Abs(fastLog(u) - math.Log(u)); !(diff <= fastLogMaxErr) {
			t.Fatalf("fastLog(%g) = %g, math.Log = %g (off by %g, bound %g)", u, fastLog(u), math.Log(u), diff, fastLogMaxErr)
		}
	}
	var st sparseStream
	st.state = 12345
	for i := 0; i < 100_000; i++ {
		u := st.float64()
		if u == 0 {
			u = 0x1p-53
		}
		check(u)
	}
	top := math.Nextafter(2, 0) // the largest mantissa: z nearest 1/3
	for _, u := range []float64{
		0x1p-53, 0x1p-63, 0.5, 0.9999999, 1 - 0x1p-53, top / 4,
		0x1p-1000, top * 0x1p-1001, 0x1p-1022, top * 0x1p-1023, 0x1p-1000 * 1.5,
	} {
		check(u)
	}
	for e := -1022; e < 0; e++ {
		check(math.Ldexp(1, e))
		check(math.Ldexp(top, e-1))
		check(math.Ldexp(1.4142135623730951, e))
	}
}
