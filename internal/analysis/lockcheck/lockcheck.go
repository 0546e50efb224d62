// Package lockcheck enforces the runtime's mutex contracts: functions
// annotated `//eiffel:locked(<mutex>)` may only be reached from call sites
// that provably hold that mutex, and struct fields annotated
// `//eiffel:guarded(<mutex>)` must never mix locked and unlocked access.
//
// Lock evidence is lexical, per function body, in source order:
//
//   - an executed `<expr>.Lock()` on a sync.Mutex/RWMutex adds the lock
//     key ExprKey(<expr>) to the held set until a matching `.Unlock()`
//     (a deferred Unlock holds to the end of the body);
//   - a function annotated locked(mu), where mu is a mutex field of its
//     receiver, starts with `<recv>.mu` held — that is its contract;
//   - a function-literal argument to a call of a function annotated
//     `//eiffel:acquires(L)` runs with the abstract lock L held (the
//     shardq.Core.WithShardLocked callback family);
//   - locks acquired inside a conditional are not held after it; locks
//     released inside a conditional are treated as released after it
//     (conservative both ways), except in branches that cannot fall
//     through — `if full { mu.Unlock(); return }` keeps the lock held on
//     the fall-through path.
//
// The model trades flow precision for zero configuration: two textually
// identical expressions in one body are assumed to alias, and calls
// through interfaces or function values are not checked (the race detector
// job covers dynamic dispatch). It is exactly strong enough to machine-
// check the WithShardLocked/flushLocked family this repository relies on.
package lockcheck

import (
	"go/ast"
	"go/types"

	"eiffel/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "calls to //eiffel:locked functions and accesses to //eiffel:guarded fields must hold the named mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			held := make(map[string]bool)
			c.seedFromAnnotation(fn, held)
			c.block(fn.Body.List, held)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// seedFromAnnotation marks the function's own locked() contract as held on
// entry: receiver-field locks as "<recv>.<mu>", everything else abstract.
func (c *checker) seedFromAnnotation(fn *ast.FuncDecl, held map[string]bool) {
	obj, ok := c.pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	fa := c.pass.Annot.Funcs[obj]
	if fa == nil {
		return
	}
	recvName := ""
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		recvName = fn.Recv.List[0].Names[0].Name
	}
	st := analysis.RecvStruct(obj)
	for _, lock := range fa.Locked {
		if f := analysis.StructFieldNamed(st, lock); f != nil && recvName != "" {
			held[recvName+"."+lock] = true
		} else {
			held["#"+lock] = true
		}
	}
}

// block walks stmts in order, updating held and checking each expression.
// It returns the set of lock keys the statements released (Unlocked) so
// callers can propagate releases out of nested blocks.
func (c *checker) block(stmts []ast.Stmt, held map[string]bool) map[string]bool {
	released := make(map[string]bool)
	for _, s := range stmts {
		for k := range c.stmt(s, held) {
			released[k] = true
			delete(held, k)
		}
	}
	return released
}

// nested runs a conditionally-executed block on a copy of held: locks it
// acquires do not survive it, locks it releases are released after it.
func (c *checker) nested(stmts []ast.Stmt, held map[string]bool) map[string]bool {
	inner := make(map[string]bool, len(held))
	for k := range held {
		inner[k] = true
	}
	return c.block(stmts, inner)
}

// stmt processes one statement, mutating held for straight-line lock
// operations and returning lock keys released inside it (directly or in
// any nested block).
func (c *checker) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	released := make(map[string]bool)
	switch s := s.(type) {
	case nil:
		return released
	case *ast.ExprStmt:
		if key, op := c.lockOp(s.X); key != "" {
			c.exprs(s.X, held) // check the receiver expr itself first
			if op == "Lock" || op == "RLock" {
				held[key] = true
			} else {
				released[key] = true
			}
			return released
		}
		c.exprs(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock releases at function end: the lock stays held
		// for the remainder of the body. Any other deferred call is
		// checked under the current held set (approximate, conservative
		// for the Lock-then-defer-Unlock idiom this repo uses).
		if key, op := c.lockOp(s.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
			return released
		}
		c.exprs(s.Call, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.exprs(e, held)
		}
		for _, e := range s.Lhs {
			c.exprs(e, held)
		}
	case *ast.GoStmt:
		// The goroutine runs on its own schedule: no inherited locks.
		c.exprs(s.Call, make(map[string]bool))
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.exprs(e, held)
		}
	case *ast.IfStmt:
		c.stmt(s.Init, held)
		c.exprs(s.Cond, held)
		rel := c.nested(s.Body.List, held)
		// A branch that cannot fall through (return/break/panic) does not
		// leak its releases to the code after the conditional — that is the
		// `if full { mu.Unlock(); return }` early-exit idiom.
		if !terminates(s.Body.List) {
			for k := range rel {
				released[k] = true
			}
		}
		if s.Else != nil {
			rel := c.nested([]ast.Stmt{s.Else}, held)
			if !terminates([]ast.Stmt{s.Else}) {
				for k := range rel {
					released[k] = true
				}
			}
		}
	case *ast.ForStmt:
		c.stmt(s.Init, held)
		if s.Cond != nil {
			c.exprs(s.Cond, held)
		}
		body := s.Body.List
		if s.Post != nil {
			body = append(body[:len(body):len(body)], s.Post)
		}
		for k := range c.nested(body, held) {
			released[k] = true
		}
	case *ast.RangeStmt:
		c.exprs(s.X, held)
		for k := range c.nested(s.Body.List, held) {
			released[k] = true
		}
	case *ast.BlockStmt:
		for k := range c.block(s.List, held) {
			released[k] = true
		}
	case *ast.SwitchStmt:
		c.stmt(s.Init, held)
		if s.Tag != nil {
			c.exprs(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.exprs(e, held)
				}
				rel := c.nested(cl.Body, held)
				if !terminates(cl.Body) {
					for k := range rel {
						released[k] = true
					}
				}
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, held)
		c.stmt(s.Assign, held)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for k := range c.nested(cl.Body, held) {
					released[k] = true
				}
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.stmt(cl.Comm, held)
				for k := range c.nested(cl.Body, held) {
					released[k] = true
				}
			}
		}
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		c.exprs(s.X, held)
	case *ast.SendStmt:
		c.exprs(s.Chan, held)
		c.exprs(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.exprs(e, held)
					}
				}
			}
		}
	}
	return released
}

// terminates reports whether control cannot fall off the end of stmts:
// the last statement is a return, a break/continue/goto, or a panic call.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// lockOp recognizes `<expr>.Lock/Unlock/RLock/RUnlock()` on a mutex and
// returns the lock key and operation name.
func (c *checker) lockOp(e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if tv, ok := c.pass.Info.Types[sel.X]; !ok || !analysis.IsMutexType(tv.Type) {
		return "", ""
	}
	if key = analysis.ExprKey(sel.X); key == "" {
		return "", ""
	}
	return key, sel.Sel.Name
}

// exprs checks every call and guarded-field access inside e under held.
func (c *checker) exprs(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Function literals run under the locks their eventual caller
			// holds. Two cases are modeled: a literal passed directly to an
			// //eiffel:acquires(L) function runs with L held plus the
			// current lexical set (the callback is invoked synchronously
			// under the wrapper's lock); any other literal inherits only
			// the current set (it may run later, but a lock held here and
			// still required there is the common same-goroutine case —
			// escapes are the race job's problem).
			inner := make(map[string]bool, len(held))
			for k := range held {
				inner[k] = true
			}
			if names := c.acquiredBy(e, n); len(names) > 0 {
				for _, l := range names {
					inner["#"+l] = true
				}
			}
			c.block(n.Body.List, inner)
			return false
		case *ast.CallExpr:
			c.checkCall(n, held)
		case *ast.SelectorExpr:
			c.checkFieldAccess(n, held)
		}
		return true
	})
}

// acquiredBy returns the abstract locks held around lit if lit is a direct
// argument of a call (within e) to an //eiffel:acquires function.
func (c *checker) acquiredBy(root ast.Expr, lit *ast.FuncLit) []string {
	var acquired []string
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) != lit {
				continue
			}
			fn := analysis.StaticCallee(c.pass.Info, call)
			if fn == nil {
				continue
			}
			if fa := c.annotFor(fn); fa != nil {
				acquired = append(acquired, fa.Acquires...)
			}
		}
		return true
	})
	return acquired
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

// checkCall verifies a call against its callee's locked() contract.
func (c *checker) checkCall(call *ast.CallExpr, held map[string]bool) {
	fn := analysis.StaticCallee(c.pass.Info, call)
	if fn == nil {
		return
	}
	fa := c.annotFor(fn)
	if fa == nil || len(fa.Locked) == 0 {
		return
	}
	st := analysis.RecvStruct(fn)
	for _, lock := range fa.Locked {
		if analysis.StructFieldNamed(st, lock) != nil {
			// Receiver-field lock: the call must spell the receiver, and
			// <that expr>.<lock> must be held.
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base := analysis.ExprKey(sel.X)
			if base == "" {
				c.pass.Reportf(call.Pos(),
					"call to %s requires %s.%s held, but the receiver expression is not trackable",
					analysis.FuncDisplayName(fn), "<recv>", lock)
				continue
			}
			if !held[base+"."+lock] {
				c.pass.Reportf(call.Pos(),
					"call to %s without holding %s.%s",
					analysis.FuncDisplayName(fn), base, lock)
			}
		} else if !held["#"+lock] {
			c.pass.Reportf(call.Pos(),
				"call to %s without holding the %s lock (annotate the caller //eiffel:locked(%s) or call it under an //eiffel:acquires(%s) wrapper)",
				analysis.FuncDisplayName(fn), lock, lock, lock)
		}
	}
}

// checkFieldAccess verifies a guarded-field selector against held.
func (c *checker) checkFieldAccess(sel *ast.SelectorExpr, held map[string]bool) {
	f := analysis.FieldOf(c.pass.Info, sel)
	if f == nil {
		return
	}
	fa := c.fieldAnnot(f)
	if fa == nil || fa.Guarded == "" {
		return
	}
	base := analysis.ExprKey(sel.X)
	if base == "" {
		c.pass.Reportf(sel.Pos(),
			"access to guarded field %s through an untrackable expression (requires .%s held)",
			f.Name(), fa.Guarded)
		return
	}
	if !held[base+"."+fa.Guarded] {
		c.pass.Reportf(sel.Pos(),
			"access to %s.%s without holding %s.%s",
			base, f.Name(), base, fa.Guarded)
	}
}

func (c *checker) fieldAnnot(f *types.Var) *analysis.FieldAnnot {
	if fa := c.pass.Annot.Fields[f]; fa != nil {
		return fa
	}
	if f.Pkg() != nil && c.pass.DepAnnot != nil {
		if dep := c.pass.DepAnnot(f.Pkg().Path()); dep != nil {
			return dep.Fields[f]
		}
	}
	return nil
}
