package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// StaticCallee resolves the *types.Func a call statically dispatches to,
// or nil for dynamic calls: function values, interface methods, builtins,
// and type conversions. Interface-method calls are deliberately nil — the
// static analyzers cannot see through dynamic dispatch, and each analyzer
// documents how its runtime gate covers that blind spot. A call to a method
// of an instantiated generic type resolves to the generic declaration, which
// carries the annotations.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return fn.Origin()
}

// FieldOf resolves the struct-field object a selector expression reads or
// writes, or nil when the selector is not a field access.
func FieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified references (pkg.Var) have no Selection entry.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// ExprKey renders an expression as a canonical lock-identity string:
// identifiers, field selections, and index expressions print structurally
// ("s.mu", "q.shards[i].mu"); anything else returns "" (not trackable).
// Two textually identical keys in one function body are assumed to alias —
// the lexical approximation lockcheck's doc describes.
func ExprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := ExprKey(e.X)
		if base == "" {
			return ""
		}
		idx := ExprKey(e.Index)
		if idx == "" {
			idx = "?"
		}
		return base + "[" + idx + "]"
	case *ast.StarExpr:
		return ExprKey(e.X)
	case *ast.UnaryExpr:
		return ExprKey(e.X)
	}
	return ""
}

// IsMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func IsMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// RecvStruct returns the struct type underlying fn's receiver (through one
// pointer), or nil for plain functions and non-struct receivers.
func RecvStruct(fn *types.Func) *types.Struct {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}

// StructFieldNamed returns st's field with the given name, or nil.
func StructFieldNamed(st *types.Struct, name string) *types.Var {
	if st == nil {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// FuncDisplayName renders fn as "(recv).name" or "name" for diagnostics.
func FuncDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		name := t.String()
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		return name + "." + fn.Name()
	}
	return fn.Name()
}

// IsModuleLocal reports whether pkg belongs to the module being analyzed
// (the module path itself or any package below it).
func IsModuleLocal(pkg *types.Package, modulePath string) bool {
	if pkg == nil || modulePath == "" {
		return false
	}
	return pkg.Path() == modulePath || strings.HasPrefix(pkg.Path(), modulePath+"/")
}
