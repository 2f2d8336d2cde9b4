// Package countederr implements the countederr analyzer: the error
// return of a counted-fate API must not be discarded.
//
// The engine's loss model is "counted, never silent": ForwardBatch and
// the owned-submission entry points report how many frames they
// accepted AND an error describing why the remainder was refused
// (ErrClosed, a failed verify, an unknown fault link). A call site
// that drops the error keeps the count but loses the why — the one
// signal that distinguishes a full ring (expected, counted shed) from
// a closed engine (a bug in shutdown ordering). The analyzer reports
// any call to a counted-fate method declared in this module —
// ForwardBatch, SubmitBatchOwned, InjectBatch, FaultLink,
// ApplyVerified, LoadModuleVerified, InsertFlowsVerified, plus the
// ingress plane's Serve (a Source's terminal RX-loop error) and
// SendBatch (the load client's counted-fate writes) — whose
// trailing error result is discarded: the call used as a bare
// statement (or under go/defer), or the error position assigned to
// the blank identifier.
//
// _test.go files are exempt: tests routinely hammer a closing engine
// on purpose and assert on the counters instead.
package countederr

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// modulePrefix scopes the check to methods declared in this module.
const modulePrefix = "repro"

// counted is the set of counted-fate method names.
var counted = map[string]bool{
	"ForwardBatch":        true,
	"SubmitBatchOwned":    true,
	"InjectBatch":         true,
	"FaultLink":           true,
	"ApplyVerified":       true,
	"LoadModuleVerified":  true,
	"InsertFlowsVerified": true,
	"Serve":               true,
	"SendBatch":           true,
}

// Analyzer is the countederr analyzer.
var Analyzer = &framework.Analyzer{
	Name: "countederr",
	Doc:  "report discarded error returns from counted-fate APIs (ForwardBatch, SubmitBatchOwned, ...)",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	dirs := framework.ScanDirectives(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call := countedCall(pass, n.X); call != nil {
					reportDrop(pass, dirs, call, "result discarded")
				}
			case *ast.GoStmt:
				if call := countedCall(pass, n.Call); call != nil {
					reportDrop(pass, dirs, call, "result discarded by go statement")
				}
			case *ast.DeferStmt:
				if call := countedCall(pass, n.Call); call != nil {
					reportDrop(pass, dirs, call, "result discarded by defer")
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call := countedCall(pass, n.Rhs[0])
				if call == nil {
					return true
				}
				// The error is the trailing result; it is dropped when
				// the last LHS is the blank identifier.
				if len(n.Lhs) == 0 {
					return true
				}
				if id, ok := ast.Unparen(n.Lhs[len(n.Lhs)-1]).(*ast.Ident); ok && id.Name == "_" {
					reportDrop(pass, dirs, call, "error assigned to _")
				}
			}
			return true
		})
	}
	return nil, nil
}

// countedCall returns e as a call to a counted-fate method whose last
// result is an error, or nil.
func countedCall(pass *framework.Pass, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !counted[fn.Name()] || fn.Pkg() == nil {
		return nil
	}
	if p := fn.Pkg().Path(); p != modulePrefix && !strings.HasPrefix(p, modulePrefix+"/") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return nil
	}
	return call
}

func reportDrop(pass *framework.Pass, dirs *framework.Directives, call *ast.CallExpr, how string) {
	if dirs.InTestFile(call.Pos()) {
		return
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	pass.Reportf(call.Pos(),
		"countederr: %s from counted-fate API %s — loss must stay counted AND attributed; handle the error",
		how, sel.Sel.Name)
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
