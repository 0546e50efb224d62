// Package hotpath turns the runtime allocation gate
// (scripts/check_bench_allocs.sh, BenchmarkHotPath* at 0 allocs/op) into a
// compile-time check with precise positions: a function annotated
// `//eiffel:hotpath` must be free of allocation-inducing constructs, and
// every static call it makes into this module must target another hotpath
// function — so the annotation provably covers the whole static call
// graph under each benchmark's entry points.
//
// Reported constructs:
//
//   - function literals, except when passed directly as an argument to a
//     module-local hotpath function (the serve-callback idiom:
//     the callee is itself under the gate and does not retain its
//     argument, so the closure does not escape);
//   - make/new, map and slice composite literals, and &composite
//     (pointer-to-literal) expressions;
//   - append whose destination is a slice declared in the function body —
//     growth of a fresh slice is a per-op allocation; append to reused
//     scratch (a field or parameter) is amortized and allowed;
//   - conversions of non-pointer concrete values to interface types,
//     whether spelled as conversions or implied by call arguments
//     (pointers and interface-to-interface are free in the gc ABI);
//   - string concatenation with non-constant operands and string<->[]byte
//     conversions;
//   - go and defer statements;
//   - calls into the denylisted formatting packages (fmt, errors, log);
//   - static calls to module-local functions not annotated hotpath.
//
// Dynamic dispatch — interface methods and func values (the Scheduler
// backends, PairFunc) — is invisible to the static pass; the runtime gate
// still measures those paths, which is why both gates exist and cross-
// reference each other. Genuine amortized slow paths (table growth, pool
// refill) are suppressed at the call site with
// `//eiffel:allow(hotpath) <rationale>`, keeping each exception visible.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"eiffel/internal/analysis"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//eiffel:hotpath functions must avoid allocation-inducing constructs and may only call other hotpath functions within the module",
	Run:  run,
}

// denied packages: their call surfaces allocate by design.
var deniedPkgs = map[string]bool{"fmt": true, "errors": true, "log": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			fa := pass.Annot.Funcs[obj]
			if fa == nil || !fa.Hotpath {
				continue
			}
			(&checker{pass: pass, fn: fn}).check()
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl

	locals map[types.Object]bool // slice vars declared in this body
}

func (c *checker) check() {
	c.locals = make(map[types.Object]bool)
	// Collect body-local variable declarations first (:= and var), so the
	// append rule can tell fresh slices from reused scratch.
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.Info.Defs[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					c.locals[obj] = true
				}
			}
		}
		return true
	})
	c.walk(c.fn.Body)
}

func (c *checker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement in hotpath function %s", c.fn.Name.Name)
		case *ast.DeferStmt:
			c.pass.Reportf(n.Pos(), "defer in hotpath function %s", c.fn.Name.Name)
		case *ast.FuncLit:
			// Checked at the enclosing CallExpr when passed to a hotpath
			// callee; reaching one here means it was NOT such an argument.
			c.pass.Reportf(n.Pos(), "closure in hotpath function %s may escape and allocate", c.fn.Name.Name)
			return false
		case *ast.CompositeLit:
			c.compositeLit(n, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.compositeLit(cl, true)
					// Children were handled; still descend for nested exprs.
				}
			}
		case *ast.BinaryExpr:
			c.binary(n)
		case *ast.CallExpr:
			if c.call(n) {
				return false
			}
		}
		return true
	})
}

func (c *checker) compositeLit(n *ast.CompositeLit, addressed bool) {
	tv, ok := c.pass.Info.Types[n]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(n.Pos(), "map literal allocates in hotpath function %s", c.fn.Name.Name)
	case *types.Slice:
		c.pass.Reportf(n.Pos(), "slice literal allocates in hotpath function %s", c.fn.Name.Name)
	default:
		if addressed {
			c.pass.Reportf(n.Pos(), "&composite literal may heap-allocate in hotpath function %s", c.fn.Name.Name)
		}
	}
}

func (c *checker) binary(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := c.pass.Info.Types[n]
	if !ok {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if tv.Value != nil {
		return // constant-folded
	}
	c.pass.Reportf(n.Pos(), "string concatenation allocates in hotpath function %s", c.fn.Name.Name)
}

// call checks one call expression; returns true if the walk should skip
// the call's children (closure arguments already handled).
func (c *checker) call(call *ast.CallExpr) bool {
	// Type conversions.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type)
		for _, arg := range call.Args {
			c.walk(arg)
		}
		return true
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			c.builtin(id.Name, call) // walks the arguments itself
			return true
		}
	}
	fn := analysis.StaticCallee(c.pass.Info, call)
	if fn == nil {
		// Dynamic dispatch: func value or interface method. Exempt (see
		// package doc); still check the arguments below via the walk.
		return false
	}
	c.boxedArgs(call, fn)
	pkg := fn.Pkg()
	switch {
	case pkg == nil:
		// error.Error etc.: nothing to check.
	case deniedPkgs[pkg.Path()]:
		c.pass.Reportf(call.Pos(), "call to %s.%s allocates (denylisted package) in hotpath function %s",
			pkg.Name(), fn.Name(), c.fn.Name.Name)
	case c.isModuleLocal(pkg):
		callee := c.annotFor(fn)
		if callee == nil || !callee.Hotpath {
			c.pass.Reportf(call.Pos(), "hotpath function %s calls %s, which is not annotated //eiffel:hotpath",
				c.fn.Name.Name, analysis.FuncDisplayName(fn))
		} else {
			// Closure arguments to a hotpath callee are allowed (the
			// serve-callback idiom) but their bodies are still checked.
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					c.walk(lit.Body)
				}
			}
			c.walkArgsSkippingFuncLits(call)
			return true
		}
	}
	return false
}

// walkArgsSkippingFuncLits re-walks non-literal arguments of a call whose
// closure arguments were already handled.
func (c *checker) walkArgsSkippingFuncLits(call *ast.CallExpr) {
	c.walk(call.Fun)
	for _, arg := range call.Args {
		if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			continue
		}
		c.walk(arg)
	}
}

func (c *checker) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argT := c.pass.Info.Types[call.Args[0]].Type
	if argT == nil {
		return
	}
	if types.IsInterface(target.Underlying()) && !types.IsInterface(argT.Underlying()) && !pointerShaped(argT) {
		c.pass.Reportf(call.Pos(), "conversion of %s to interface %s allocates in hotpath function %s",
			argT, target, c.fn.Name.Name)
		return
	}
	// string <-> []byte/[]rune copies allocate.
	if isString(target) && isByteOrRuneSlice(argT) || isString(argT) && isByteOrRuneSlice(target) {
		c.pass.Reportf(call.Pos(), "string/slice conversion allocates in hotpath function %s", c.fn.Name.Name)
	}
}

func (c *checker) builtin(name string, call *ast.CallExpr) {
	switch name {
	case "make", "new":
		c.pass.Reportf(call.Pos(), "%s allocates in hotpath function %s", name, c.fn.Name.Name)
	case "append":
		if len(call.Args) == 0 {
			return
		}
		dst := ast.Unparen(call.Args[0])
		id, ok := dst.(*ast.Ident)
		if !ok {
			return // field or indexed scratch: reused storage, amortized
		}
		obj := c.pass.Info.Uses[id]
		if obj == nil || !c.locals[obj] {
			return // parameter or package-level: caller-owned storage
		}
		c.pass.Reportf(call.Pos(), "append to function-local slice %s allocates per call in hotpath function %s",
			id.Name, c.fn.Name.Name)
	}
	for _, arg := range call.Args {
		c.walk(arg)
	}
}

// boxedArgs flags non-pointer concrete arguments passed to interface
// parameters (implicit conversions the gc ABI must heap-box).
func (c *checker) boxedArgs(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := c.pass.Info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) || pointerShaped(at) {
			continue
		}
		if tv := c.pass.Info.Types[arg]; tv.Value != nil {
			continue // constants may be statically boxed
		}
		c.pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in hotpath function %s",
			at, pt, c.fn.Name.Name)
	}
}

func (c *checker) isModuleLocal(pkg *types.Package) bool {
	if pkg == c.pass.Pkg {
		return true
	}
	return c.pass.DepAnnot != nil && c.pass.DepAnnot(pkg.Path()) != nil
}

func (c *checker) annotFor(fn *types.Func) *analysis.FuncAnnot {
	if fa := c.pass.Annot.Funcs[fn]; fa != nil {
		return fa
	}
	if fn.Pkg() != nil && c.pass.DepAnnot != nil {
		if dep := c.pass.DepAnnot(fn.Pkg().Path()); dep != nil {
			return dep.Funcs[fn]
		}
	}
	return nil
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
