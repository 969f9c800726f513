package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tracerguard keeps a disabled instrument at its one-branch cost: building
// an obs.Event just to hand it to a nil tracer's no-op Emit still pays for
// the event construction, so every call to a guarded emitter method
// (Config.Guarded: obs.Tracer Emit/EmitNow, obs.Recorder Record) must sit
// behind the nil-check branch pattern — either an enclosing `if tr.On()` /
// `if tr != nil` branch or a preceding `if !tr.On() { return }` guard
// clause. Only methods of the guarded type
// itself are exempt: they implement the nil tolerance the guard relies on,
// and everything else — including other types in the same package that
// forward into an emitter — is held to the pattern.
var tracerguard = &Analyzer{
	Name: "tracerguard",
	Doc:  "require every guarded emitter call site (tracer/recorder) to sit behind an On()/nil guard",
	Run:  runTracerguard,
}

func runTracerguard(p *Pass) {
	for _, f := range p.Pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			g := guardedEmitterFor(p, sel)
			if g == nil {
				return true
			}
			if enclosingReceiverIs(p, stack, g) {
				return true
			}
			recv := types.ExprString(sel.X)
			if !guardedByAncestor(call, stack, recv) && !guardedByClause(call, stack, recv) {
				p.Reportf(call.Pos(),
					"%s.%s outside an On()/nil guard: the disabled %s must cost one branch, not the call's argument construction",
					recv, sel.Sel.Name, g.Type)
			}
			return true
		})
	}
}

// guardedEmitterFor resolves the selector call and returns the guarded
// emitter it is a method of, or nil.
func guardedEmitterFor(p *Pass, sel *ast.SelectorExpr) *GuardedEmitter {
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	for i := range p.Cfg.Guarded {
		g := &p.Cfg.Guarded[i]
		if named.Obj().Pkg().Path() != g.Pkg || named.Obj().Name() != g.Type {
			continue
		}
		for _, m := range g.Methods {
			if sel.Sel.Name == m {
				return g
			}
		}
	}
	return nil
}

// enclosingReceiverIs reports whether the call sits inside a method whose
// receiver is the guarded type itself (the type's own methods carry the
// nil checks everyone else's guards rely on).
func enclosingReceiverIs(p *Pass, stack []ast.Node, g *GuardedEmitter) bool {
	if p.Pkg.Path != g.Pkg {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		rt := fd.Recv.List[0].Type
		if star, ok := rt.(*ast.StarExpr); ok {
			rt = star.X
		}
		id, ok := rt.(*ast.Ident)
		return ok && id.Name == g.Type
	}
	return false
}

// guardedByAncestor reports whether an enclosing if's then-branch proves the
// tracer is on (cond contains recv.On() or recv != nil, possibly under &&).
func guardedByAncestor(call *ast.CallExpr, stack []ast.Node, recv string) bool {
	for i := len(stack) - 1; i > 0; i-- {
		ifStmt, ok := stack[i-1].(*ast.IfStmt)
		if !ok || stack[i] != ast.Node(ifStmt.Body) {
			continue // not in the then-branch of this if
		}
		if condProvesOn(ifStmt.Cond, recv) {
			return true
		}
	}
	return false
}

// guardedByClause reports whether the enclosing function contains, before
// the call, a guard clause of the form `if !recv.On() { return }` or
// `if recv == nil { return }`.
func guardedByClause(call *ast.CallExpr, stack []ast.Node, recv string) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		if ifStmt.End() >= call.Pos() {
			return true
		}
		if condProvesOff(ifStmt.Cond, recv) && endsInReturn(ifStmt.Body) {
			found = true
		}
		return !found
	})
	return found
}

// condProvesOn: the condition being true implies the tracer is enabled.
func condProvesOn(e ast.Expr, recv string) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return condProvesOn(e.X, recv)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condProvesOn(e.X, recv) || condProvesOn(e.Y, recv)
		case token.NEQ:
			return nilCompare(e, recv)
		}
	case *ast.CallExpr:
		return types.ExprString(e) == recv+".On()"
	}
	return false
}

// condProvesOff: the condition being true implies the tracer is disabled
// (the guard-clause shape, which returns early).
func condProvesOff(e ast.Expr, recv string) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return condProvesOff(e.X, recv)
	case *ast.UnaryExpr:
		return e.Op == token.NOT && condProvesOn(e.X, recv)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			// `if a == nil || b == nil { return }` refutes each receiver.
			return condProvesOff(e.X, recv) || condProvesOff(e.Y, recv)
		case token.EQL:
			return nilCompare(e, recv)
		}
	}
	return false
}

// nilCompare reports whether the comparison pits recv against nil.
func nilCompare(e *ast.BinaryExpr, recv string) bool {
	x, y := types.ExprString(e.X), types.ExprString(e.Y)
	return (x == recv && y == "nil") || (y == recv && x == "nil")
}

// endsInReturn reports whether the block's last statement leaves the
// function (return or panic).
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}
