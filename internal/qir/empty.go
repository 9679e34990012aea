package qir

import (
	"strings"

	"jsonlogic/internal/jsontree"
)

// The constant-empty program: the physical plan a semantic pass
// compiles a provably unsatisfiable query to. Match and EvalAppend
// answer without visiting a single node, and Describe renders the
// proof verdict so explanations show why no data was touched.

// emptyOp is the constant-false predicate of a semantically empty
// program.
type emptyOp struct{ reason string }

func (emptyOp) eval(*state, jsontree.NodeID) bool { return false }
func (o emptyOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "const_empty("+o.reason+")")
}

// Empty returns a program over q whose Match is constantly false and
// whose EvalAppend selects nothing — the compilation target for
// queries a semantic pass proved unsatisfiable. reason labels the proof (e.g.
// "unsat", "schema_unsat") and shows up in Describe.
func Empty(q *Query, reason string) *Program {
	return &Program{query: q, pred: emptyOp{reason: reason}}
}

// IsEmpty reports whether the program is a constant-empty program
// built by Empty.
func (p *Program) IsEmpty() bool {
	_, ok := p.pred.(emptyOp)
	return ok
}
