// Package prob implements the probability analysis of Section IV of the
// paper: the distribution of uniformly random cell faults over the blocks of
// a cache array, the resulting capacity of the block-disabling scheme, the
// whole-cache-failure probability of the word-disabling scheme, and the
// capacity of the incremental word-disabling variant.
//
// All binomial computation is done in log space (math.Lgamma) so that the
// large array sizes of real caches (d*k ≈ 275k cells) stay numerically
// stable.
package prob

import "math"

// LogChoose returns ln C(n, k). It returns -Inf when the coefficient is
// zero (k < 0 or k > n).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// BinomPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	switch p {
	case 0:
		if k == 0 {
			return 1
		}
		return 0
	case 1:
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// BinomTailAtLeast returns P[X >= kMin] for X ~ Binomial(n, p).
func BinomTailAtLeast(n, kMin int, p float64) float64 {
	if kMin <= 0 {
		return 1
	}
	if kMin > n {
		return 0
	}
	// Sum the shorter tail for accuracy.
	if float64(kMin) > float64(n)*p {
		s := 0.0
		for k := n; k >= kMin; k-- {
			s += BinomPMF(n, k, p)
		}
		return clamp01(s)
	}
	s := 0.0
	for k := 0; k < kMin; k++ {
		s += BinomPMF(n, k, p)
	}
	return clamp01(1 - s)
}

// MeanFaultyBlocksExact implements Eq. 1 of the paper (Yao's formula): the
// mean number of distinct blocks containing at least one of n faulty cells
// drawn without replacement from an array of d blocks of k cells each:
//
//	u = d - d * Π_{i=0}^{k-1} (1 - n/(dk-i))
//
// For the paper's running example (d=512, k=537, n=275) u ≈ 213.
func MeanFaultyBlocksExact(d, k, n int) float64 {
	if d <= 0 || k <= 0 {
		return 0
	}
	total := d * k
	if n >= total {
		return float64(d)
	}
	if n <= 0 {
		return 0
	}
	// Π (1 - n/(dk-i)) = Π (dk-i-n)/(dk-i). Work in log space: the product
	// underflows double precision for large n.
	logProd := 0.0
	for i := 0; i < k; i++ {
		num := float64(total - i - n)
		den := float64(total - i)
		if num <= 0 {
			return float64(d) // every block certainly hit
		}
		logProd += math.Log(num / den)
	}
	return float64(d) * (1 - math.Exp(logProd))
}

// BlockFaultProb returns pbf = 1-(1-pfail)^k, the probability that a block
// of k cells contains at least one faulty cell.
func BlockFaultProb(k int, pfail float64) float64 {
	if pfail <= 0 {
		return 0
	}
	if pfail >= 1 {
		return 1
	}
	// 1-(1-p)^k = -expm1(k*log1p(-p)), stable for tiny p.
	return clamp01(-math.Expm1(float64(k) * math.Log1p(-pfail)))
}

// MeanFaultyBlockFraction implements Eq. 2: the expected fraction of faulty
// blocks for a fixed per-cell failure probability, u/d = 1-(1-pfail)^k.
// This is the fixed-pfail approximation of Eq. 1 and drives Fig. 3.
func MeanFaultyBlockFraction(k int, pfail float64) float64 {
	return BlockFaultProb(k, pfail)
}

// ExpectedCapacity returns the mean fraction of fault-free blocks,
// 1 - MeanFaultyBlockFraction. This is the block-disabling capacity curve
// of Fig. 6.
func ExpectedCapacity(k int, pfail float64) float64 {
	return 1 - MeanFaultyBlockFraction(k, pfail)
}

// CapacityPMF implements Eq. 3: the probability distribution of the number
// of fault-free blocks x in a d-block array where each block independently
// is faulty with probability pbf = BlockFaultProb(k, pfail):
//
//	P[x] = C(d, x) * pbf^(d-x) * (1-pbf)^x
//
// The returned slice has d+1 entries; index x is the probability of exactly
// x fault-free blocks. This drives Fig. 4.
func CapacityPMF(d, k int, pfail float64) []float64 {
	pbf := BlockFaultProb(k, pfail)
	pmf := make([]float64, d+1)
	for x := 0; x <= d; x++ {
		pmf[x] = BinomPMF(d, x, 1-pbf)
	}
	return pmf
}

// CapacityMeanStd returns the mean and standard deviation of the capacity
// fraction (fault-free blocks / d). For the reference cache at pfail=0.001
// the paper quotes mean 58% and σ ≈ 2 percentage points.
func CapacityMeanStd(d, k int, pfail float64) (mean, std float64) {
	pok := 1 - BlockFaultProb(k, pfail)
	mean = pok
	std = math.Sqrt(float64(d)*pok*(1-pok)) / float64(d)
	return mean, std
}

// CapacityAtLeast returns P[capacity >= frac] for a block-disabled cache:
// the probability that at least ceil(frac*d) blocks are fault free. The
// paper quotes 99.9% for frac=0.5 at the reference configuration.
func CapacityAtLeast(d, k int, pfail float64, frac float64) float64 {
	need := int(math.Ceil(frac * float64(d)))
	return BinomTailAtLeast(d, need, 1-BlockFaultProb(k, pfail))
}

// WordFaultProb returns pwf = 1-(1-pfail)^wordBits, the probability that a
// word is faulty (Eq. 5 uses 32-bit words).
func WordFaultProb(wordBits int, pfail float64) float64 {
	return BlockFaultProb(wordBits, pfail)
}

// HalfBlockFailProb implements Eq. 5: the probability that a half-block of
// a words contains more than a/2 faulty words:
//
//	phbf = Σ_{i=a/2+1}^{a} C(a, i) pwf^i (1-pwf)^(a-i)
//
// For the paper's configuration a=8 (8-word subblocks), so failure means
// more than 4 faulty words. Tag bits are excluded: the word-disable scheme
// stores them in robust 10T cells.
func HalfBlockFailProb(wordsPerHalfBlock, wordBits int, pfail float64) float64 {
	pwf := WordFaultProb(wordBits, pfail)
	return BinomTailAtLeast(wordsPerHalfBlock, wordsPerHalfBlock/2+1, pwf)
}

// WholeCacheFailProb implements Eq. 4 with the sign corrected (the printed
// equation 1-phbf^(2d) is a typo; it would evaluate to ~1 everywhere):
//
//	pwcf = 1 - (1 - phbf)^(d * halfBlocksPerBlock)
//
// the probability that any half-block in the array is unrepairable, which
// renders a word-disabled cache unfit for low-voltage operation (Fig. 5).
func WholeCacheFailProb(d, halfBlocksPerBlock int, phbf float64) float64 {
	if phbf <= 0 {
		return 0
	}
	if phbf >= 1 {
		return 1
	}
	n := float64(d * halfBlocksPerBlock)
	return clamp01(-math.Expm1(n * math.Log1p(-phbf)))
}

// WordDisableWholeCacheFailProb composes Eqs. 4 and 5 for a cache of d
// blocks with the given block geometry. blockBytes/4 gives 32-bit words per
// block; half-blocks are 8-word subblocks in the paper's configuration.
func WordDisableWholeCacheFailProb(d, blockBytes, wordBits, wordsPerHalfBlock int, pfail float64) float64 {
	wordsPerBlock := blockBytes * 8 / wordBits
	halfBlocksPerBlock := wordsPerBlock / wordsPerHalfBlock
	phbf := HalfBlockFailProb(wordsPerHalfBlock, wordBits, pfail)
	return WholeCacheFailProb(d, halfBlocksPerBlock, phbf)
}

// IncrementalWDCapacity implements Eq. 6, the expected capacity of the
// incremental word-disabling scheme:
//
//	capacity = pbpff + (1 - pbpff - pbpd)/2
//
// where pbpff = (1-pfail)^(2k) is the probability a block pair is fault
// free (k = data bits per block), and pbpd = 1-(1-phbf)^4 is the
// probability the pair must be disabled (any of its four 8-word subblocks
// has more than 4 faulty words). Drives Fig. 7.
func IncrementalWDCapacity(dataBitsPerBlock, wordsPerHalfBlock, wordBits int, pfail float64) float64 {
	pbpff := math.Exp(2 * float64(dataBitsPerBlock) * math.Log1p(-pfail))
	phbf := HalfBlockFailProb(wordsPerHalfBlock, wordBits, pfail)
	halfBlocksPerPair := 2 * dataBitsPerBlock / (wordsPerHalfBlock * wordBits)
	pbpd := clamp01(-math.Expm1(float64(halfBlocksPerPair) * math.Log1p(-phbf)))
	return clamp01(pbpff + (1-pbpff-pbpd)/2)
}

// Series is a sampled curve: X[i] maps to Y[i]. The experiment drivers
// produce Series for each paper figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.X) }

// Sweep samples f over n+1 evenly spaced points in [lo, hi].
func Sweep(label string, lo, hi float64, n int, f func(float64) float64) Series {
	s := Series{Label: label, X: make([]float64, n+1), Y: make([]float64, n+1)}
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		s.X[i] = x
		s.Y[i] = f(x)
	}
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
