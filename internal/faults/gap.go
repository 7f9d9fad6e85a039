package faults

import "math"

const ln2 = 0.6931471805599453

// tabLogMaxErr bounds |tabLog(u) − math.Log(u)| for u in [2⁻¹⁰⁰⁰, 1),
// with a margin of more than twenty. Within its mantissa interval of
// width 1/256, m lies within 1/512 of the centre c_j, so
// r = m·inv_j − 1 has |r| ≤ 1/512 (plus an ulp), and the dropped tail
// of ln(1+r) = r − r²/2 + r³/3 − r⁴/4 + … is at most
// r⁴/4 · 1/(1−|r|) ≤ 3.7e-12. Rounding adds less than 4e-13 on top:
// ln2's representation error times an exponent of at most 1000 is
// 2.3e-14, the product e·ln2 and the two sums each round by less than
// 8e-14 at |ln u| ≤ 694, r and the table's lnc carry an ulp of values
// below 0.7, and math.Log itself is within one ulp (1.2e-13). inv_j's
// own rounding costs nothing: lnc is −ln(inv_j) of the rounded inv_j,
// so ln m = ln(m·inv_j) + lnc holds for the stored value. The worst
// error measured is 3.6e-12 over 2·10⁷ uniform draws and 3.7e-12 over
// every interval edge of every binade.
// TestTabLogAccuracy holds tabLog to this constant, and GapSampler's
// exactness rests on it.
const tabLogMaxErr = 1e-10

// logTab holds one entry per mantissa interval [1+j/256, 1+(j+1)/256):
// inv = 1/c_j, with c_j the interval's centre 1+(j+½)/256 (exact in
// float64), and lnc = −ln(inv), so that ln m = lnc + ln(m·inv). 4 KB,
// built once at package initialisation.
var logTab = func() (t [256]struct{ inv, lnc float64 }) {
	for j := range t {
		t[j].inv = 1 / (1 + (float64(j)+0.5)/256)
		t[j].lnc = -math.Log(t[j].inv)
	}
	return t
}()

// tabLog returns ln(u) for u in [2⁻¹⁰⁰⁰, 1) to within tabLogMaxErr: the
// exponent times ln2, plus the table's lnc for the interval the top
// eight mantissa bits select, plus ln(1+r) ≈ r − r²/2 + r³/3 for the
// small remainder r = m·inv − 1. It has no divide and stays within
// the inliner's budget. It is wrong for subnormal u, whose exponent
// field does not carry the scale.
func tabLog(u float64) float64 {
	bits := math.Float64bits(u)
	e := float64(int(bits>>52&0x7ff) - 1023)
	m := math.Float64frombits(bits&0x000fffffffffffff | 0x3ff0000000000000)
	t := &logTab[bits>>44&0xff]
	r := m*t.inv - 1
	return e*ln2 + t.lnc + r*(1+r*(-0.5+r*(1.0/3)))
}

// GapSampler turns uniforms into the geometric gaps of Bernoulli(pfail)
// cells: Skip(u) is the number of good cells before the next faulty
// one. It is exact — equal to int(math.Log(u)/math.Log1p(-pfail)) for
// every u — so the fault streams it drives are the ones math.Log gives,
// but it evaluates the cheaper tabLog and falls back to math.Log only
// when the table log cannot settle the integer part.
type GapSampler struct {
	logQ    float64 // math.Log1p(-pfail)
	invLogQ float64 // 1 / logQ
	slack   float64 // tabLogMaxErr / |logQ|
}

// NewGapSampler returns the sampler for cells faulty with probability
// pfail, 0 < pfail ≤ 1.
func NewGapSampler(pfail float64) GapSampler {
	logQ := math.Log1p(-pfail)
	return GapSampler{logQ: logQ, invLogQ: 1 / logQ, slack: tabLogMaxErr / math.Abs(logQ)}
}

// Skip returns int(math.Log(u)/logQ) for u in [0, 1), reading u == 0
// as math.SmallestNonzeroFloat64.
//
// x = tabLog(u)·invLogQ differs from the exact quotient X =
// math.Log(u)/logQ by at most tabLogMaxErr/|logQ| from the table log,
// plus three roundings (the reciprocal, the product, the quotient) of
// at most x·2⁻⁵² together; the x·2⁻⁴⁰ term covers the latter many
// times over. So when x's fractional part is more than that slack away
// from both 0 and 1, X lies strictly between the same two integers and
// int(X) = int(x). Anywhere else the exact expression decides: near a
// boundary, for a negative x (tabLog can overshoot ln u ≈ 0 just below
// 1), for x ≥ 2⁴⁰ (where int conversion nears its range and the slack
// nears a cell), for u below 2⁻¹⁰⁰⁰ (subnormal u, on which tabLog is
// wrong) and for pfail = 1 (slack 0, x = 0).
func (g GapSampler) Skip(u float64) int {
	if u >= 0x1p-1000 {
		x := tabLog(u) * g.invLogQ
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
