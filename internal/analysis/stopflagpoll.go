package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// hotPackages are the import paths whose loops dominate solve time.
// Every other package either terminates trivially or delegates its
// long-running work to these.
var hotPackages = []string{
	"internal/sat",
	"internal/cnf",
	"internal/bitblast",
	"internal/absint",
	// metrics code runs on the solver hot path too: the OnSample hook
	// fires inside the CDCL restart loop, so an unbounded loop here
	// stalls the search exactly like one in the core would.
	"internal/metrics",
}

// pollNames are call names that count as cooperative-halt polls: the
// StopFlag itself, the preprocessor's budget check (which folds the
// StopFlag in), and fault-injection sites (which honor stop-capable
// faults).
var pollNames = map[string]bool{
	"Stopped": true,
	"halted":  true,
	"Fire":    true,
}

// boundedAnnotation marks a loop the author asserts terminates in a
// bounded number of iterations (e.g. a trail walk or heap sift). It
// must sit on the loop's own line or the line directly above it.
const boundedAnnotation = "alive:bounded"

// StopFlagPoll flags `for { ... }` and `for cond { ... }` loops in the
// solver hot paths whose bodies neither poll a cooperative halt check
// nor carry an //alive:bounded annotation. Such a loop can run
// arbitrarily long while ignoring deadlines and stop requests — the
// exact bug class the StopFlag plumbing exists to prevent.
var StopFlagPoll = &Analyzer{
	Name: "stopflagpoll",
	Doc: "unbounded loops in solver hot paths must poll StopFlag " +
		"(Stopped/halted/Fire) or be annotated //alive:bounded",
	AppliesTo: func(importPath string) bool {
		for _, p := range hotPackages {
			if strings.HasSuffix(importPath, p) {
				return true
			}
		}
		return false
	},
	Run: runStopFlagPoll,
}

func runStopFlagPoll(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		bounded := boundedLines(u.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Init != nil || loop.Post != nil {
				return true
			}
			line := u.Fset.Position(loop.For).Line
			if bounded[line] || bounded[line-1] {
				return true
			}
			if callsPoll(loop.Body) || condPolls(loop.Cond) {
				return true
			}
			out = append(out, Diagnostic{
				Pos:      u.Fset.Position(loop.For),
				Analyzer: "stopflagpoll",
				Message: "unbounded loop in solver hot path does not poll StopFlag; " +
					"call Stopped/halted/Fire in the body or annotate //alive:bounded",
			})
			return true
		})
	}
	return out
}

// boundedLines returns the set of line numbers carrying an
// //alive:bounded comment.
func boundedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, boundedAnnotation) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// callsPoll reports whether the subtree contains a call to one of the
// cooperative-halt names, either as a method (s.Stop.Stopped()) or a
// plain function (halted()).
func callsPoll(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if pollNames[fn.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if pollNames[fn.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// condPolls reports whether the loop condition itself embeds a halt
// check (e.g. `for !p.halted() && i < n { ... }`).
func condPolls(cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	return callsPoll(cond)
}
