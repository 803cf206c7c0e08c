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
// over the sorted union of support values t_k, with G = Π F_i. ExpectedMax
// implements that sweep for N = Σ z_i atoms: a stable radix sort of the
// atoms (at most 8 O(N) passes, see Sorter) followed by one O(N) sweep, which
// is what makes the "exact empirical approximation ratio" experiments
// feasible. Atoms are swept in the canonical order — ascending by value,
// equal values in ascending atom order — so every sort of the same values
// sums them in the same order. A brute-force enumeration oracle and a
// Monte-Carlo estimator are provided for cross-checking.
package emax

import (
	"fmt"
	"math"
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

// Event is one support atom in an expected-max sweep: value Val carrying
// probability mass Prob, belonging to the random variable with index RV.
// A stream of Events sorted ascending by Val is the input contract of
// Arena.SweepSorted — the allocation-free core of ExpectedMax that callers
// with presorted supports (the incremental swap evaluator in internal/core)
// drive directly, skipping the per-call event build and sort.
type Event struct {
	Val  float64
	Prob float64
	RV   int32
}

// Arena carries the reusable scratch buffers of repeated expected-max
// sweeps: the flattened atoms of ExpectedMax, the radix sort scratch, the
// sorted event stream, and the per-RV CDF/log-CDF state. A zero Arena is
// ready to use; buffers grow to the high-water mark of the evaluations run
// through it and are reused afterwards, so steady-state evaluations of
// same-shaped inputs do not allocate. An Arena is not safe for concurrent
// use; give each worker its own.
type Arena struct {
	vals   []float64
	probs  []float64
	rvIdx  []int32
	sorter Sorter
	events []Event
	cdf    []float64
	logCdf []float64
}

// ExpectedMax returns E[max_i X_i] for independent X_i, exactly (up to
// floating point), via the merged-CDF sweep: a stable radix sort of the
// N = Σ z_i atoms (at most 8 O(N) passes) and one O(N) sweep. Equal values
// are swept in the canonical (value, index) order, the index being the
// atom's position when the RVs' positive-probability atoms are listed in
// order. It returns an error if any RV fails Validate; an empty slice has
// expected max 0 by convention.
func ExpectedMax(rvs []RV) (float64, error) {
	var a Arena
	return a.ExpectedMax(rvs)
}

// ExpectedMax is the package-level ExpectedMax evaluated on the arena's
// reusable buffers: identical validation, identical result, the same
// canonical (value, index) order and radix cost. It validates every RV,
// flattens the positive-probability atoms in RV order, then runs
// ExpectedMaxFlat; a warmed arena allocates nothing.
func (a *Arena) ExpectedMax(rvs []RV) (float64, error) {
	if len(rvs) == 0 {
		return 0, nil
	}
	vals, probs, rvIdx := a.vals[:0], a.probs[:0], a.rvIdx[:0]
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
	}
	a.vals, a.probs, a.rvIdx = vals, probs, rvIdx
	return a.ExpectedMaxFlat(vals, probs, rvIdx, len(rvs)), nil
}

// ExpectedMaxFlat computes E[max_i X_i] directly from a flat
// structure-of-arrays atom layout: atom f has value vals[f] with probability
// probs[f] and belongs to the random variable rvIdx[f] ∈ [0, nRVs). This is
// the representation a compiled instance (internal/core.Compiled) holds, so
// the evaluator consumes it without materializing per-RV slices.
//
// It is the validation-free fast path: the caller guarantees that values are
// finite, probabilities are positive (zero-probability atoms pruned), and
// each RV's total mass is 1 within ProbSumTol — the invariants a compiled
// instance establishes once at compile time. The atoms are swept in the
// canonical (value, f) order: a stable radix sort of vals (Sorter, at most 8
// O(N) passes) puts equal values in ascending f, so the result depends only
// on the atoms, never on a sort's tie-breaking. Given a warmed arena it
// allocates nothing.
func (a *Arena) ExpectedMaxFlat(vals, probs []float64, rvIdx []int32, nRVs int) float64 {
	sorted := a.sorter.sort(vals)
	if cap(a.events) < len(sorted) {
		a.events = make([]Event, len(sorted))
	}
	events := a.events[:len(sorted)]
	for i, it := range sorted {
		f := it.idx
		events[i] = Event{Val: vals[f], Prob: probs[f], RV: rvIdx[f]}
	}
	return a.SweepSorted(events, nRVs)
}

// SweepSorted computes E[max] from an event stream already sorted ascending
// by Val, for nRVs random variables indexed 0..nRVs-1. It is the sweep of
// ExpectedMax with the validation and the sort stripped; the caller
// guarantees the order, that every Prob is positive, and that each RV's
// total mass is 1 within ProbSumTol. Given a warmed arena it performs no
// allocations — the contract the incremental swap evaluator's benchmarks
// pin with ReportAllocs.
func (a *Arena) SweepSorted(events []Event, nRVs int) float64 {
	if len(events) == 0 {
		return 0
	}
	if cap(a.cdf) < nRVs {
		a.cdf = make([]float64, nRVs)
		a.logCdf = make([]float64, nRVs)
	}
	cdf, logCdf := a.cdf[:nRVs], a.logCdf[:nRVs]
	for i := range cdf {
		cdf[i] = 0
	}

	// Sweep values in ascending order maintaining G(t) = Π_i F_i(t).
	// F_i starts at 0, so track the count of zero factors separately and keep
	// Σ log F_i over the non-zero factors for drift-free updates; G is zero
	// until zeros == 0. logCdf caches log F_i so each event costs one Log.
	zeros := nRVs
	logProd := 0.0

	var expected float64
	prevG := 0.0
	i := 0
	for i < len(events) {
		t := events[i].Val
		// Apply every event at this exact value before reading G(t).
		for i < len(events) && events[i].Val == t {
			e := events[i]
			old := cdf[e.RV]
			nw := old + e.Prob
			if nw > 1 {
				nw = 1 // clamp prefix-sum rounding
			}
			cdf[e.RV] = nw
			lg := math.Log(nw)
			if old == 0 {
				zeros--
				logProd += lg
			} else {
				logProd += lg - logCdf[e.RV]
			}
			logCdf[e.RV] = lg
			i++
		}
		var g float64
		if zeros == 0 {
			g = math.Exp(logProd)
			if g > 1 {
				g = 1
			}
		}
		if g > prevG {
			expected += t * (g - prevG)
			prevG = g
		}
	}
	return expected
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

// MaxCDF returns P(max_i X_i ≤ t) for each query threshold, exploiting the
// same independence factorization as ExpectedMax: P(max ≤ t) = Π_i F_i(t).
// The queries need not be sorted. Returns an error on invalid RVs.
func MaxCDF(rvs []RV, ts []float64) ([]float64, error) {
	out := make([]float64, len(ts))
	for i := range out {
		out[i] = 1
	}
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("rv %d: %w", i, err)
		}
		for q, t := range ts {
			var f float64
			for j, v := range r.Vals {
				if v <= t {
					f += r.Probs[j]
				}
			}
			if f > 1 {
				f = 1
			}
			out[q] *= f
		}
	}
	return out, nil
}

// ExpectedMaxUpperTail returns P(max_i X_i > t) — useful for tail diagnostics
// in the harness. Returns an error on invalid RVs.
func ExpectedMaxUpperTail(rvs []RV, t float64) (float64, error) {
	prod := 1.0
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		var f float64
		for j, v := range r.Vals {
			if v <= t {
				f += r.Probs[j]
			}
		}
		if f > 1 {
			f = 1
		}
		prod *= f
	}
	return 1 - prod, nil
}
