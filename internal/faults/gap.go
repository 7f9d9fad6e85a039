package faults

import "math"

const ln2 = 0.6931471805599453

// fastLogMaxErr bounds |fastLog(u) − math.Log(u)| for u in [2⁻¹⁰⁰⁰, 1),
// with a margin of more than ten. The dropped atanh tail is
// 2(z¹³/13 + z¹⁵/15 + …) ≤ 2z¹³/13 · 1/(1−z²), which at z = 1/3 (the
// top of the unreduced mantissa range) is 1.09e-7. Rounding adds less
// than 1e-12 on top: ln2's representation error times an exponent of
// at most 1000 is 2.3e-14, the two roundings of e·ln2 and the final sum
// are each below 8e-14 at |ln u| ≤ 694, z and the series carry a few
// ulps of a value below 0.7, and math.Log itself is within one ulp. The
// worst error measured over 2·10⁷ uniform draws is 1.07e-7.
// TestFastLogAccuracy holds fastLog to this same constant, and
// GapSampler's exactness rests on it.
const fastLogMaxErr = 1.5e-6

// fastLog returns ln(u) for u in [2⁻¹⁰⁰⁰, 1) to within fastLogMaxErr.
// It is the classic exponent-plus-mantissa decomposition with the atanh
// series 2z(1 + z²/3 + z⁴/5 + z⁶/7 + z⁸/9 + z¹⁰/11), z = (m-1)/(m+1);
// over the unreduced mantissa range [1, 2), z ≤ 1/3, so the dropped
// terms stay near 1e-7 (skipping the usual √2 reduction trades two
// series terms for an unpredictable branch). It is wrong for
// subnormal u, whose exponent field does not carry the scale. The
// intermediate conversions pin each step to float64, keeping the result
// bit-identical whether or not the platform fuses multiply-adds.
// injectSparse repeats this body inline in its sampling loop (the call
// is beyond the inliner's budget); keep the two in sync —
// TestFastLogAccuracy and the byte-identity tests hold both to the same
// stream.
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

// GapSampler turns uniforms into the geometric gaps of Bernoulli(pfail)
// cells: Skip(u) is the number of good cells before the next faulty
// one. It is exact — equal to int(math.Log(u)/math.Log1p(-pfail)) for
// every u — so the fault streams it drives are the ones math.Log gives,
// but it evaluates the cheaper fastLog and falls back to math.Log only
// when the polynomial cannot settle the integer part.
type GapSampler struct {
	logQ    float64 // math.Log1p(-pfail)
	invLogQ float64 // 1 / logQ
	slack   float64 // fastLogMaxErr / |logQ|
}

// NewGapSampler returns the sampler for cells faulty with probability
// pfail, 0 < pfail ≤ 1.
func NewGapSampler(pfail float64) GapSampler {
	logQ := math.Log1p(-pfail)
	return GapSampler{logQ: logQ, invLogQ: 1 / logQ, slack: fastLogMaxErr / math.Abs(logQ)}
}

// Skip returns int(math.Log(u)/logQ) for u in [0, 1), reading u == 0
// as math.SmallestNonzeroFloat64.
//
// x = fastLog(u)·invLogQ differs from the exact quotient X =
// math.Log(u)/logQ by at most fastLogMaxErr/|logQ| from the polynomial,
// plus three roundings (the reciprocal, the product, the quotient) of
// at most x·2⁻⁵² together; the x·2⁻⁴⁰ term covers the latter many
// times over. So when x's fractional part is more than that slack away
// from both 0 and 1, X lies strictly between the same two integers and
// int(X) = int(x). Anywhere else the exact expression decides: near a
// boundary, for a negative x (fastLog can overshoot ln u ≈ 0 just below
// 1), for x ≥ 2⁴⁰ (where int conversion nears its range and the slack
// nears a cell), for u below 2⁻¹⁰⁰⁰ (subnormal u, on which fastLog is
// wrong) and for pfail = 1 (slack 0, x = 0).
func (g GapSampler) Skip(u float64) int {
	if u >= 0x1p-1000 {
		x := fastLog(u) * g.invLogQ
		if x < 0x1p40 {
			n := int(x)
			fr := x - float64(n)
			if s := g.slack + x*0x1p-40; fr > s && fr < 1-s {
				return n
			}
		}
	}
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / g.logQ)
}
