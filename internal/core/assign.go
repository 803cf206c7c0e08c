package core

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// Rule names the paper's three assignment rules for the restricted assigned
// problem versions.
type Rule int

const (
	// RuleED is the expected distance assignment: P_i goes to the center
	// minimizing Σ_j p_ij·d(P_ij, c) (introduced by Wang & Zhang).
	RuleED Rule = iota
	// RuleEP is the expected point assignment: P_i goes to the center
	// nearest to its expected point P̄_i (Euclidean only; new in the paper).
	RuleEP
	// RuleOC is the 1-center assignment: P_i goes to the center nearest to
	// the 1-center P̃_i of its own distribution (new in the paper).
	RuleOC
)

// String returns the paper's name for the rule.
func (r Rule) String() string {
	switch r {
	case RuleED:
		return "expected-distance"
	case RuleEP:
		return "expected-point"
	case RuleOC:
		return "one-center"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// AssignED computes the expected distance assignment: for each uncertain
// point, the index of the center with minimal expected distance. O(n·z·k).
func AssignED[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P) ([]int, error) {
	return AssignCtx(context.Background(), space, pts, centers, RuleED, nil, 1)
}

// AssignEuclidean dispatches the named rule for Euclidean instances,
// computing the needed surrogates internally. It is a sequential
// background-context wrapper over AssignCtx, the single rule
// implementation.
func AssignEuclidean(pts []uncertain.Point[geom.Vec], centers []geom.Vec, rule Rule) ([]int, error) {
	return AssignCtx[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, centers, rule, nil, 1)
}

// AssignMetric dispatches the named rule for general-metric instances.
// RuleEP is rejected: expected points do not exist outside linear spaces.
// candidates is the surrogate search space for RuleOC (typically all
// locations or all space points). It is a sequential background-context
// wrapper over AssignCtx, the single rule implementation.
func AssignMetric[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, rule Rule, candidates []P) ([]int, error) {
	return AssignCtx(context.Background(), space, pts, centers, rule, candidates, 1)
}
