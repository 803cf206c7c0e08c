package core

import "fmt"

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
