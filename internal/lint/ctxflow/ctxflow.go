// Package ctxflow enforces the cancellation-threading discipline: contexts
// flow from the caller, they are not minted mid-stack.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"ringsym/internal/lint/analysis"
)

// Analyzer flags context.Background()/TODO() where a caller's context should
// have been threaded through.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `contexts are threaded from the caller, never minted mid-stack

A protocol run abandoned by its client must stop burning CPU within one
simulated round; that only works when every layer hands the caller's context
down (engine.Run takes the caller's context and checks it between
crossings).  Two rules:

  - A function that receives a context.Context must not call
    context.Background() or context.TODO() anywhere in its body: a fresh
    root context silently severs the caller's cancellation exactly where it
    was supposed to flow.
  - In internal packages, context.Background()/TODO() is flagged everywhere
    (test files are never analyzed): roots belong in main and in deliberate,
    documented compatibility wrappers.  Such wrappers keep a
    //ringvet:allow ctxflow with the justification.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	internal := isInternal(pass.Pkg.Path())
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if !analysis.IsPkgFunc(fn, "context", "Background") && !analysis.IsPkgFunc(fn, "context", "TODO") {
			return true
		}
		if param := enclosingCtxParam(pass.TypesInfo, stack); param != "" {
			pass.Reportf(call.Pos(),
				"context.%s inside a function that receives %s: a fresh root severs the caller's cancellation — pass %s through",
				fn.Name(), param, param)
		} else if internal {
			pass.Reportf(call.Pos(),
				"context.%s in an internal package severs cancellation; thread a context from the caller (deliberate context-free wrappers carry a //ringvet:allow ctxflow)",
				fn.Name())
		}
		return true
	})
	return nil
}

// isInternal reports whether the import path contains an "internal" segment.
func isInternal(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// enclosingCtxParam returns the name of a context.Context parameter of any
// function enclosing the innermost stack node, or "" when there is none.
func enclosingCtxParam(info *types.Info, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			tv, ok := info.Types[field.Type]
			if !ok || !isContextType(tv.Type) {
				continue
			}
			if len(field.Names) > 0 && field.Names[0].Name != "_" {
				return field.Names[0].Name
			}
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
