// Package emax computes the exact expectation of the maximum of independent
// discrete random variables.
//
// This is the computational heart of the reproduction. The paper's cost
//
//	Ecost_A(C) = Σ_R prob(R) · max_i d(P̂_i, A(P_i))
//
// ranges over Π z_i realizations, which is exponential — but for a *fixed*
// center set and assignment the per-point distances D_i = d(X_i, A(P_i)) are
// independent discrete random variables, so
//
//	P(max_i D_i ≤ t) = Π_i F_i(t),   E[max] = Σ_k t_k · (G(t_k) − G(t_{k−1}))
//
// over the sorted union of support values t_k, with G = Π F_i. G is 0
// below t* = max_i min D_i, so the kernels split the sum there: every atom
// at or below t* only feeds its RV's CDF F_i(t*) (summed in atom order, no
// log, no sort), and only the atoms above t* — typically a few percent of
// the N = Σ z_i atoms when the D_i are distances to nearby centers — are
// sorted into the canonical (value, atom) order and swept, one Log per live
// atom. An RV with no atom above t* is settled: F_i(t*) is its whole mass
// F_i(∞). A Layout holds log G∞ = Σ_i log F_i(∞) once, and log G(t*) starts
// there, each unsettled RV replacing its term log F_i(∞) by log F_i(t*), so
// settled RVs cost no Log. A from-scratch evaluation is O(N) plus the sort
// of the live set (an insertion sort when it is short, a stable radix sort
// otherwise; see Sorter), which is what makes the "exact empirical
// approximation ratio" experiments feasible; the fused kernel of the swap
// evaluator visits only the RVs its fixed half leaves above t*. A
// brute-force enumeration oracle and a Monte-Carlo estimator are provided
// for cross-checking.
package emax

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// RV is a discrete random variable: P(X = Vals[j]) = Probs[j]. Values need
// not be sorted or distinct; probabilities must be non-negative and sum to 1
// within validation tolerance.
type RV struct {
	Vals  []float64
	Probs []float64
}

// ProbSumTol is the allowed deviation of Σ Probs from 1 in Validate.
const ProbSumTol = 1e-9

// Validate checks structural invariants: equal nonzero lengths, finite
// values, non-negative probabilities summing to 1 within ProbSumTol.
func (r RV) Validate() error {
	if len(r.Vals) == 0 {
		return fmt.Errorf("emax: RV with empty support")
	}
	if len(r.Vals) != len(r.Probs) {
		return fmt.Errorf("emax: RV with %d values and %d probabilities", len(r.Vals), len(r.Probs))
	}
	var sum float64
	for j, p := range r.Probs {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("emax: probability %d = %g", j, p)
		}
		if math.IsNaN(r.Vals[j]) || math.IsInf(r.Vals[j], 0) {
			return fmt.Errorf("emax: value %d = %g", j, r.Vals[j])
		}
		sum += p
	}
	if math.Abs(sum-1) > ProbSumTol {
		return fmt.Errorf("emax: probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Mean returns E[X] = Σ_j Probs[j]·Vals[j].
func (r RV) Mean() float64 {
	var s float64
	for j, p := range r.Probs {
		s += p * r.Vals[j]
	}
	return s
}

// Sample draws one realization of X.
func (r RV) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var acc float64
	for j, p := range r.Probs {
		acc += p
		if u < acc {
			return r.Vals[j]
		}
	}
	return r.Vals[len(r.Vals)-1] // guard against rounding of the prefix sums
}

// Arena carries the reusable scratch buffers of repeated expected-max
// evaluations: the flattened atoms and layout of ExpectedMax, the CDF and
// log-CDF state of the unsettled RVs, the live set and its sort scratch,
// and ExpectedMaxMinFlat's per-RV atom buffer and visited-RV bitset. A
// zero Arena is ready to use; buffers grow to the high-water mark of the
// evaluations run through it and are reused afterwards, so steady-state
// evaluations of same-shaped inputs do not allocate. An Arena is not safe
// for concurrent use; give each worker its own.
type Arena struct {
	vals     []float64
	probs    []float64
	offsets  []int32
	rvIdx    []int32
	lay      Layout // ExpectedMax's layout over probs, offsets and rvIdx
	cdf      []float64
	logCdf   []float64
	liveVals []float64
	liveIdx  []int32
	atoms    []float64 // one RV's b values in ExpectedMaxMinFlat
	visit    []uint64  // ExpectedMaxMinFlat's visited RVs, one bit each
	sorter   Sorter
}

// ExpectedMax returns E[max_i X_i] for independent X_i, exactly (up to
// floating point), via the threshold-split sweep of ExpectedMaxFlat over the
// RVs' positive-probability atoms listed in order. It returns an error if
// any RV fails Validate; an empty slice has expected max 0 by convention.
func ExpectedMax(rvs []RV) (float64, error) {
	var a Arena
	return a.ExpectedMax(rvs)
}

// ExpectedMax is the package-level ExpectedMax evaluated on the arena's
// reusable buffers: identical validation, identical result. It validates
// every RV, flattens the positive-probability atoms in RV order into a
// layout the arena owns, then runs ExpectedMaxFlat; a warmed arena
// allocates nothing.
func (a *Arena) ExpectedMax(rvs []RV) (float64, error) {
	if len(rvs) == 0 {
		return 0, nil
	}
	vals, probs, rvIdx, offsets := a.vals[:0], a.probs[:0], a.rvIdx[:0], append(a.offsets[:0], 0)
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		for j, v := range r.Vals {
			if r.Probs[j] > 0 {
				vals = append(vals, v)
				probs = append(probs, r.Probs[j])
				rvIdx = append(rvIdx, int32(i))
			}
		}
		offsets = append(offsets, int32(len(vals)))
	}
	a.vals, a.probs, a.rvIdx, a.offsets = vals, probs, rvIdx, offsets
	a.lay.init(probs, offsets, rvIdx)
	return a.ExpectedMaxFlat(&a.lay, vals), nil
}

// Layout is the static half of the flat kernels' input: atom f has
// probability probs[f] and belongs to RV rvIdx[f], RV i owns atoms
// offsets[i]:offsets[i+1], and full/fullLog hold each RV's whole mass
// F_i(∞), clamped at 1 and summed in atom order, with its log. logS + logC
// is log G∞, the compensated RV-order sum of fullLog[i] over the RVs with
// F_i(∞) < 1, where every kernel starts its log G(t*). ratio and over are
// the per-RV constants of the expected-excess certificate. Immutable once
// built; O(n) beside the caller's atom columns.
type Layout struct {
	probs          []float64
	offsets, rvIdx []int32
	full, fullLog  []float64
	ratio          []float64 // G∞/F_i(∞)
	over           []float64 // max(0, mass_i − 1), the mass F_i's clamp discards
	mass           float64   // G∞ = Π_i F_i(∞)
	logS, logC     float64   // log G∞ = logS + logC
	maxZ           int       // the most atoms any RV owns
}

// NewLayout builds the layout of RVs i ∈ [0, len(offsets)−1) over the
// given atoms; the slices are retained, not copied.
func NewLayout(probs []float64, offsets, rvIdx []int32) *Layout {
	l := new(Layout)
	l.init(probs, offsets, rvIdx)
	return l
}

// init makes l the layout of NewLayout(probs, offsets, rvIdx), reusing l's
// per-RV buffers.
func (l *Layout) init(probs []float64, offsets, rvIdx []int32) {
	n := max(len(offsets)-1, 0)
	*l = Layout{probs: probs, offsets: offsets, rvIdx: rvIdx,
		full: resize(l.full, n), fullLog: resize(l.fullLog, n),
		ratio: resize(l.ratio, n), over: resize(l.over, n), mass: 1}
	for i := range l.full {
		p := 0.0
		for _, q := range probs[offsets[i]:offsets[i+1]] {
			p += q
		}
		l.over[i] = max(p-1, 0)
		l.full[i], l.fullLog[i] = clampLog(p)
		if l.full[i] < 1 {
			l.logS, l.logC = twoSum(l.logS, l.logC, l.fullLog[i])
		}
		l.mass *= l.full[i]
		l.maxZ = max(l.maxZ, int(offsets[i+1]-offsets[i]))
	}
	for i, m := range l.full {
		l.ratio[i] = l.mass / m
	}
}

// Mass returns G∞ = Π_i F_i(∞), the total probability G reaches at the
// end of a sweep: 1 up to the per-RV tolerance of ProbSumTol.
func (l *Layout) Mass() float64 { return l.mass }

// ExpectedMaxFlat computes E[max_i X_i] from a flat structure-of-arrays
// atom column: atom f has value vals[f] and l's probability and RV. This is
// the representation a compiled instance (internal/core.Compiled) holds,
// so the evaluator consumes it without materializing per-RV slices.
//
// It is the validation-free fast path: the caller guarantees that values are
// finite, probabilities are positive (zero-probability atoms pruned), and
// each RV's total mass is 1 within ProbSumTol — the invariants a compiled
// instance establishes once at compile time. Given a warmed arena it
// allocates nothing.
//
// The sweep is split at t* = max_i min X_i, below which G = Π_i F_i is 0:
//
//	E[max] = t*·G(t*) + Σ_{t > t*} t·(G(t) − G(t⁻))
//
// One pass takes every RV's minimum and t*. A second, per RV, adds each
// atom ≤ t* into F_i(t*) (no log, no ordering) and gathers the atoms above
// t* — the live set. An RV with no live atom is settled: F_i(t*) = F_i(∞),
// and it adds nothing more. log G(t*) starts at the layout's log G∞, and
// each unsettled RV, in RV order, adds log F_i(t*) and then −log F_i(∞),
// each only where its argument is below 1, to the compensated sum. Only
// the live set is sorted (Sorter) into the canonical (value, f) order —
// ascending by value, equal values in ascending f — and swept, at one Log
// per live atom and one Exp per distinct live value. The result therefore
// depends only on the atoms in f order, never on a sort's tie-breaking.
func (a *Arena) ExpectedMaxFlat(l *Layout, vals []float64) float64 {
	if len(l.probs) == 0 {
		return 0
	}
	vals = vals[:len(l.probs)]
	// Pass 1: t* = max_i min_f vals[f], first-wins comparisons.
	tStar := math.Inf(-1)
	lo := l.offsets[0]
	for _, hi := range l.offsets[1:] {
		m := math.Inf(1)
		for _, v := range vals[lo:hi] {
			if v < m {
				m = v
			}
		}
		if m > tStar {
			tStar = m
		}
		lo = hi
	}

	// Pass 2: per RV, F_i(t*) and its live atoms; only an unsettled RV
	// touches the log sum.
	a.rvState(len(l.full))
	liveVals, liveIdx := a.liveVals[:0], a.liveIdx[:0]
	s, c := l.logS, l.logC
	lo = l.offsets[0]
	for i, hi := range l.offsets[1:] {
		p, n0 := 0.0, len(liveVals)
		for f := lo; f < hi; f++ {
			if v := vals[f]; v <= tStar {
				p += l.probs[f]
			} else {
				liveVals = append(liveVals, v)
				liveIdx = append(liveIdx, f)
			}
		}
		if len(liveVals) > n0 {
			s, c = a.unsettle(l, i, p, s, c)
		}
		lo = hi
	}
	a.liveVals, a.liveIdx = liveVals, liveIdx
	return a.sweep(l, tStar, s, c)
}

// ExpectedMaxMinFlat returns ExpectedMaxFlat over l's atoms for the values
// v_f = min(av[f], b_f) (b_f only where strictly smaller) without
// materializing them, or +Inf with cut set once the expected-excess
// certificate below shows the result is at least cost0. The caller
// supplies tStar = max_i min_f v_f, the split ExpectedMaxFlat finds in its
// first pass, aMax[i], the max of av over RV i's atoms, and byMax, the RVs
// ordered by aMax, descending. An RV with aMax[i] ≤ t* has every atom at
// or below t*, so it is settled and never visited: the fold visits only
// the prefix of byMax above t*, in RV order (through the arena's bitset),
// and its cost scales with that prefix, not with the number of RVs. For
// each visited RV, atoms(i, dst) writes b over RV i's atoms into dst
// (len(dst) = its atom count), and the fold adds its atoms ≤ t* into
// F_i(t*) and gathers the rest into the live set, in atom order. With the
// log sum started at log G∞ and corrected by the unsettled RVs in RV order,
// and the shared sweep, that is ExpectedMaxFlat's arithmetic: the results
// are equal bit for bit. A warmed arena allocates nothing, provided atoms
// does not escape.
//
// The certificate (DESIGN.md §11 has the proof). With w_f = max(t*, v_f),
// m̃_i = min(1, mass_i) and vmax_i = max_f w_f, the sweep's result is at
// least, for every RV i,
//
//	(G∞/m̃_i)·(Σ_f p_f·w_f − max(0, mass_i − 1)·vmax_i),
//
// because the clamped CDF product H it climbs satisfies
// H(t) ≤ min(1, F_i(t))·G∞/m̃_i, and the clamp of a surplus mass costs at
// most (mass_i − 1)·(vmax_i − t*). The fold returns +Inf and cut = true,
// before the sort and the sweep, as soon as one visited RV's bound reaches
// cost0; an unvisited RV would give t*·G∞ and is not checked. cost0 = +Inf
// disarms it, and the fold then skips its arithmetic. A result of +Inf
// with cut false is the sweep's.
func (a *Arena) ExpectedMaxMinFlat(l *Layout, av, aMax []float64, byMax []int32, tStar, cost0 float64, atoms func(i int, dst []float64)) (v float64, cut bool) {
	if len(l.probs) == 0 {
		return 0, false
	}
	nRVs := len(l.full)
	a.rvState(nRVs)
	if cap(a.atoms) < l.maxZ {
		a.atoms = make([]float64, l.maxZ)
	}
	words := (nRVs + 63) / 64
	if len(a.visit) < words {
		a.visit = make([]uint64, words)
	}
	visit := a.visit[:words]
	clear(visit)
	for _, i := range byMax {
		if aMax[i] <= tStar {
			break
		}
		visit[i>>6] |= 1 << (i & 63)
	}
	armed := cost0 < math.Inf(1)
	liveVals, liveIdx := a.liveVals[:0], a.liveIdx[:0]
	s, c := l.logS, l.logC
	for w, word := range visit {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			lo, hi := l.offsets[i], l.offsets[i+1]
			bv := a.atoms[:hi-lo]
			atoms(i, bv)
			p, n0 := 0.0, len(liveVals)
			for j, b := range bv {
				f := lo + int32(j)
				v := av[f]
				if b < v {
					v = b
				}
				if v <= tStar {
					p += l.probs[f]
				} else {
					liveVals = append(liveVals, v)
					liveIdx = append(liveIdx, f)
				}
			}
			if armed && l.excessBound(i, tStar, p, liveVals[n0:], liveIdx[n0:]) >= cost0 {
				a.liveVals, a.liveIdx = liveVals, liveIdx
				return math.Inf(1), true
			}
			if len(liveVals) > n0 {
				s, c = a.unsettle(l, i, p, s, c)
			}
		}
	}
	a.liveVals, a.liveIdx = liveVals, liveIdx
	return a.sweep(l, tStar, s, c), false
}

// excessBound is RV i's expected-excess bound of ExpectedMaxMinFlat, given
// F_i(t*) = p unclamped and RV i's live atoms (values above t*, atom
// indices): (G∞/m̃_i)·(t*·p + Σ_live p_f·v_f − max(0, mass_i − 1)·vmax_i).
func (l *Layout) excessBound(i int, tStar, p float64, vals []float64, idx []int32) float64 {
	up, top := 0.0, tStar
	for j, v := range vals {
		up += l.probs[idx[j]] * v
		if v > top {
			top = v
		}
	}
	return l.ratio[i] * (tStar*p + up - l.over[i]*top)
}

// unsettle records F_i(t*) = p of an RV with an atom above t*, clamped at
// 1, with its log, for the sweep, and moves RV i's term of the log sum
// s + c from log F_i(∞) to log F_i(t*): it adds log F_i(t*), then
// −log F_i(∞), each only where its argument is below 1.
func (a *Arena) unsettle(l *Layout, i int, p, s, c float64) (float64, float64) {
	p, lg := clampLog(p)
	if p < 1 {
		s, c = twoSum(s, c, lg)
	}
	if l.full[i] < 1 {
		s, c = twoSum(s, c, -l.fullLog[i])
	}
	a.cdf[i], a.logCdf[i] = p, lg
	return s, c
}

// rvState sizes the arena's per-RV CDF and log-CDF state for n RVs. Only
// the unsettled RVs' entries are written and read.
func (a *Arena) rvState(n int) {
	if cap(a.cdf) < n {
		a.cdf = make([]float64, n)
		a.logCdf = make([]float64, n)
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// clampLog clamps a CDF value at 1 and returns it with its log (0 at 1).
func clampLog(p float64) (float64, float64) {
	if p < 1 {
		return p, math.Log(p)
	}
	return 1, 0
}

// sweep is the tail of both flat entry points, run once cdf and logCdf
// hold every unsettled RV's F_i(t*) and its log, s + c the compensated
// log G(t*), and the live set the atoms above t* in atom order: it sorts
// and sweeps the live set.
func (a *Arena) sweep(l *Layout, tStar, s, c float64) float64 {
	cdf, logCdf := a.cdf, a.logCdf
	probs, rvIdx := l.probs, l.rvIdx
	liveVals, liveIdx := a.liveVals, a.liveIdx
	prevG := min(math.Exp(s+c), 1)
	expected := tStar * prevG

	// Sweep the live set in canonical order, applying every atom at a value
	// before reading G there. logCdf caches log F_i, so each atom costs one
	// Log: its RV's old term leaves the sum and the new one enters.
	sorted := a.sorter.sort(liveVals)
	for i := 0; i < len(sorted); {
		t := liveVals[sorted[i].idx]
		for ; i < len(sorted) && liveVals[sorted[i].idx] == t; i++ {
			f := liveIdx[sorted[i].idx]
			r := rvIdx[f]
			nw := cdf[r] + probs[f]
			if nw > 1 {
				nw = 1
			}
			cdf[r] = nw
			lg := math.Log(nw)
			s, c = twoSum(s, c, -logCdf[r])
			s, c = twoSum(s, c, lg)
			logCdf[r] = lg
		}
		if g := min(math.Exp(s+c), 1); g > prevG {
			expected += t * (g - prevG)
			prevG = g
		}
	}
	return expected
}

// twoSum adds x to the compensated sum s + c: s is the rounded running sum
// and c collects each addition's exact rounding error (Knuth's TwoSum).
func twoSum(s, c, x float64) (float64, float64) {
	t := s + x
	z := t - s
	return t, c + ((s - (t - z)) + (x - z))
}

// ExpectedMaxNaive enumerates all Π z_i joint realizations. It is the test
// oracle; it returns an error if the joint support exceeds maxStates (use
// ~1e7) or any RV is invalid.
func ExpectedMaxNaive(rvs []RV, maxStates int) (float64, error) {
	if len(rvs) == 0 {
		return 0, nil
	}
	states := 1
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		states *= len(r.Vals)
		if states > maxStates || states < 0 {
			return 0, fmt.Errorf("emax: joint support exceeds %d states", maxStates)
		}
	}
	idx := make([]int, len(rvs))
	var expected float64
	for {
		prob := 1.0
		maxV := math.Inf(-1)
		for i, r := range rvs {
			prob *= r.Probs[idx[i]]
			if v := r.Vals[idx[i]]; v > maxV {
				maxV = v
			}
		}
		expected += prob * maxV
		// Odometer increment.
		k := 0
		for k < len(rvs) {
			idx[k]++
			if idx[k] < len(rvs[k].Vals) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(rvs) {
			return expected, nil
		}
	}
}

// MonteCarloMax estimates E[max_i X_i] with `samples` independent joint
// draws. Used in tests to cross-check ExpectedMax on instances too large for
// the naive oracle.
func MonteCarloMax(rvs []RV, samples int, rng *rand.Rand) float64 {
	if len(rvs) == 0 || samples <= 0 {
		return 0
	}
	var sum float64
	for s := 0; s < samples; s++ {
		maxV := math.Inf(-1)
		for _, r := range rvs {
			if v := r.Sample(rng); v > maxV {
				maxV = v
			}
		}
		sum += maxV
	}
	return sum / float64(samples)
}
