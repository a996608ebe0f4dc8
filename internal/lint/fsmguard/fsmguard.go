// Package fsmguard enforces the single-goroutine contract of the engine's
// scheduler: code reachable from a step handler must never block or
// synchronise, because every machine in a scenario is stepped by one
// scheduler goroutine and a blocked handler wedges the whole scenario.
package fsmguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"ringsym/internal/lint/analysis"
)

// enginePath is the import path of the engine package whose step-handler
// types mark the analyzed surface (fixtures provide a fake under the same
// path).
const enginePath = "ringsym/internal/engine"

// Analyzer flags blocking primitives reachable from FSM step handlers.
var Analyzer = &analysis.Analyzer{
	Name: "fsmguard",
	Doc: `code reachable from FSM step handlers must not block or synchronise

The engine (internal/engine fsm.go/sched.go) steps every agent's machine
on a single scheduler goroutine: a yield is the only legal way to wait, and
all engine state is mutated from that one goroutine, which is what entitles
the scheduler to run without locks.  A step handler that spawns a goroutine,
touches a channel, selects, or reaches for sync/sync/atomic either deadlocks
the scenario (the scheduler cannot advance other machines while a handler
blocks) or silently reintroduces the shared-state races the design removed.

A step handler is any function or literal whose results include both
engine.Yield and engine.Cont (the continuation-passing form every protocol is
written in), or the Machine shape Step(engine.Resume) (engine.Yield, bool).
The analyzer walks the intra-package static call graph from those seeds and
flags, anywhere in reachable code: go statements, channel operations and
channel types, select statements, and references to sync or sync/atomic.
Code that merely *builds* or runs machines (a Proto constructor, the
caller of engine.Run) is not a seed; only the handler bodies and what they
call are held to the contract.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Package-level function and method declarations by object, for the
	// intra-package call graph.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	// Seeds: declarations and literals with a step-handler signature.
	reached := map[*types.Func]bool{}
	var queue []*ast.FuncDecl
	addDecl := func(obj *types.Func) {
		if obj == nil || reached[obj] {
			return
		}
		fd, ok := decls[obj]
		if !ok {
			return
		}
		reached[obj] = true
		queue = append(queue, fd)
	}
	var seedLits []*ast.FuncLit
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj, ok := info.Defs[n.Name].(*types.Func); ok {
					if sig, ok := obj.Type().(*types.Signature); ok && isStepSig(sig) {
						addDecl(obj)
					}
				}
			case *ast.FuncLit:
				if sig, ok := info.Types[n].Type.(*types.Signature); ok && isStepSig(sig) {
					seedLits = append(seedLits, n)
				}
			}
			return true
		})
	}

	// BFS over static same-package calls.  Literal seeds contribute edges
	// too: an inline continuation calls the Step forms it composes, which
	// must then be scanned.
	follow := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := analysis.Callee(info, call); callee != nil && callee.Pkg() == pass.Pkg {
					addDecl(callee)
				}
			}
			return true
		})
	}
	for _, lit := range seedLits {
		follow(lit)
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		follow(fd)
	}

	// Roots to scan for violations: every reachable declaration, plus seed
	// literals not already contained in one (nested literals are covered by
	// scanning their enclosing root once).
	var roots []ast.Node
	for obj := range reached {
		roots = append(roots, decls[obj])
	}
	for _, lit := range seedLits {
		contained := false
		for _, r := range roots {
			if r.Pos() <= lit.Pos() && lit.End() <= r.End() {
				contained = true
				break
			}
		}
		if !contained {
			roots = append(roots, lit)
		}
	}

	for _, root := range roots {
		scan(pass, root)
	}
	return nil
}

// scan reports every blocking primitive under root.
func scan(pass *analysis.Pass, root ast.Node) {
	info := pass.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement reachable from an FSM step handler (machines run on one scheduler goroutine; spawn nothing)")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send reachable from an FSM step handler (yield to the scheduler instead of blocking)")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive reachable from an FSM step handler (yield to the scheduler instead of blocking)")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select statement reachable from an FSM step handler (yield to the scheduler instead of blocking)")
		case *ast.ChanType:
			pass.Reportf(n.Pos(), "channel type reachable from an FSM step handler (step handlers communicate only through yields)")
		case *ast.SelectorExpr:
			if obj := info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil {
				if p := obj.Pkg().Path(); p == "sync" || p == "sync/atomic" {
					pass.Reportf(n.Pos(), "use of %s.%s reachable from an FSM step handler (all engine state is single-goroutine; step handlers must be lock-free)", p, obj.Name())
				}
			}
		}
		return true
	})
}

// isStepSig reports whether sig marks a step handler: results including
// both engine.Yield and engine.Cont (the CPS form), or the Machine shape
// Step(engine.Resume) (engine.Yield, bool).
func isStepSig(sig *types.Signature) bool {
	res := sig.Results()
	hasYield, hasCont := false, false
	for i := 0; i < res.Len(); i++ {
		switch {
		case isEngineType(res.At(i).Type(), "Yield"):
			hasYield = true
		case isEngineType(res.At(i).Type(), "Cont"):
			hasCont = true
		}
	}
	if hasYield && hasCont {
		return true
	}
	if res.Len() == 2 && isEngineType(res.At(0).Type(), "Yield") {
		if b, ok := res.At(1).Type().(*types.Basic); ok && b.Kind() == types.Bool {
			p := sig.Params()
			return p.Len() == 1 && isEngineType(p.At(0).Type(), "Resume")
		}
	}
	return false
}

// isEngineType reports whether t is the named engine type with that name.
func isEngineType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == enginePath && obj.Name() == name
}
