package core

import (
	"context"
	"slices"

	"repro/internal/emax"
)

// SolveUnassignedScratch is the from-scratch oracle of
// SolveUnassignedLSCompiled: the same two seeds, swap rule and seed choice,
// with every swap evaluated from scratch by ecostUnassignedFlat — one
// Space.Dist call per atom and center — sequentially and with nothing
// pruned. The trajectory-equality tests hold the incremental, pruned scan
// to it.
func SolveUnassignedScratch[P any](ctx context.Context, c *Compiled[P], k, maxIter int) ([]P, float64, error) {
	candidates := c.CandidatesOrLocations()
	k = min(k, len(candidates))
	surr, err := c.Surrogates(ctx, SurrogateOneCenter, candidates, 1)
	if err != nil {
		return nil, 0, err
	}
	space := c.Space()
	vals := make([]float64, c.NumAtoms())
	var arena emax.Arena
	cost := func(idx []int) float64 {
		return c.ecostUnassignedFlat(selectCandidates(candidates, idx), vals, &arena)
	}
	var best []int
	var bestCost float64
	for _, chosen := range [][]int{greedySeed(space, surr, candidates, k), farthestFirstSeed(space, candidates, k, make([]float64, len(candidates)))} {
		cur := cost(chosen)
		for range maxIter {
			improved := false
			for pos := range chosen {
				bestC, bestPos := -1, cur
				for cd := range candidates {
					if slices.Contains(chosen, cd) {
						continue
					}
					trial := slices.Clone(chosen)
					trial[pos] = cd
					if v := cost(trial); v < bestPos*(1-1e-9) {
						bestC, bestPos = cd, v
					}
				}
				if bestC >= 0 {
					chosen[pos], cur, improved = bestC, bestPos, true
				}
			}
			if !improved {
				break
			}
		}
		if best == nil || cur < bestCost*(1-1e-9) {
			best, bestCost = chosen, cur
		}
	}
	return selectCandidates(candidates, best), bestCost, nil
}
