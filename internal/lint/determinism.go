package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinism enforces the byte-identical-output guarantee at the source
// level: within the deterministic packages, the same seed must produce the
// same bytes at any -j, so nothing there may read the wall clock,
// draw from the global math/rand source, race channels through select, poll
// channel readiness with a default clause, let the host's CPU count steer
// behavior, or iterate a map in an order-dependent way.
var determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global math/rand, racy or polling selects, host-CPU-count reads, and order-dependent map iteration in the deterministic packages",
	Run:  runDeterminism,
}

// globalRandConstructors are the math/rand functions that build a private,
// seedable generator rather than drawing from the global source.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	if !inScope(p.Pkg.Path, p.Cfg.DeterminismScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallClock(p, n)
				checkGlobalRand(p, n)
				checkHostCPUCount(p, n)
			case *ast.SelectStmt:
				checkSelect(p, n)
			case *ast.RangeStmt:
				checkMapRange(p, f, n)
			}
			return true
		})
	}
}

// calleeFunc resolves the called package-level function or method, or nil.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// pkgFunc reports the function's package path and name when it is a
// package-level function (methods return ok=false: a seeded *rand.Rand's
// methods are deterministic even though the global rand.Intn is not).
func pkgFunc(fn *types.Func) (pkgPath, name string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func checkWallClock(p *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(calleeFunc(p, call))
	if ok && pkg == "time" && (name == "Now" || name == "Since") {
		p.Reportf(call.Pos(),
			"time.%s reads the wall clock; deterministic code must use virtual sim.Time", name)
	}
}

func checkGlobalRand(p *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(calleeFunc(p, call))
	if !ok || (pkg != "math/rand" && pkg != "math/rand/v2") {
		return
	}
	if globalRandConstructors[name] {
		return
	}
	p.Reportf(call.Pos(),
		"%s.%s draws from the global random source; use a seeded sim.Rand stream", pkg, name)
}

// checkHostCPUCount flags reads of the host's CPU configuration. The
// harness's worker count (-j) must never influence simulation output, so deterministic code cannot branch on how many CPUs
// the host machine happens to have.
func checkHostCPUCount(p *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(calleeFunc(p, call))
	if ok && pkg == "runtime" && (name == "NumCPU" || name == "GOMAXPROCS") {
		p.Reportf(call.Pos(),
			"runtime.%s makes behaviour depend on the host's CPU count; worker counts must not influence output", name)
	}
}

func checkSelect(p *Pass, sel *ast.SelectStmt) {
	comms, hasDefault := 0, false
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok {
			if cc.Comm != nil {
				comms++
			} else {
				hasDefault = true
			}
		}
	}
	if comms >= 2 {
		p.Reportf(sel.Pos(),
			"select over %d channels resolves nondeterministically when more than one is ready", comms)
		return
	}
	// A single-channel select with a default clause is a readiness poll: the
	// branch taken depends on goroutine scheduling timing.
	if hasDefault && comms >= 1 {
		p.Reportf(sel.Pos(),
			"select with a default clause polls channel readiness; the branch taken depends on scheduling timing")
	}
}

// checkMapRange flags iteration over a map unless the loop body is
// order-insensitive: pure commutative accumulation, set insertion/removal,
// or collecting entries into slices that are sorted afterwards.
func checkMapRange(p *Pass, f *ast.File, rng *ast.RangeStmt) {
	t := p.Pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}

	collected := []string{}
	for _, stmt := range rng.Body.List {
		names, ok := orderInsensitiveStmt(p, stmt)
		if !ok {
			p.Reportf(rng.Pos(),
				"iteration over map %s has an order-dependent body; sort the keys first",
				types.ExprString(rng.X))
			return
		}
		collected = append(collected, names...)
	}

	// Entries collected into slices are fine only if every such slice is
	// sorted later in the enclosing block.
	for _, name := range collected {
		if !sortedAfter(p, f, rng, name) {
			p.Reportf(rng.Pos(),
				"%s collects map keys but is never sorted; map iteration order would leak into the output", name)
		}
	}
}

// orderInsensitiveStmt reports whether one loop-body statement commutes
// across iterations, and names any slices it appends map entries to.
func orderInsensitiveStmt(p *Pass, stmt ast.Stmt) (collected []string, ok bool) {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return nil, true
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative, associative accumulation.
			return nil, true
		case token.ASSIGN:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return nil, false
			}
			lhs := types.ExprString(s.Lhs[0])
			// Writing into another map keyed per iteration (set building)
			// carries no order.
			if ix, isIndex := s.Lhs[0].(*ast.IndexExpr); isIndex {
				if t := p.Pkg.Info.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return nil, true
					}
				}
			}
			// s = append(s, ...): collection for later sorting.
			if call, isCall := s.Rhs[0].(*ast.CallExpr); isCall {
				if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "append" &&
					len(call.Args) >= 1 && types.ExprString(call.Args[0]) == lhs {
					return []string{lhs}, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	case *ast.ExprStmt:
		// delete(m, k) removes without ordering.
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "delete" {
				return nil, true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// sortedAfter reports whether a statement after rng in its enclosing block
// passes the named slice to a sort (package sort or slices).
func sortedAfter(p *Pass, f *ast.File, rng *ast.RangeStmt, name string) bool {
	found := false
	inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		block, isBlock := n.(*ast.BlockStmt)
		if !isBlock {
			return true
		}
		after := false
		for _, stmt := range block.List {
			if stmt == ast.Stmt(rng) {
				after = true
				continue
			}
			if after && stmtSorts(p, stmt, name) {
				found = true
			}
		}
		return true
	})
	return found
}

// stmtSorts reports whether the statement calls a sort/slices function with
// the named slice among its argument expressions.
func stmtSorts(p *Pass, stmt ast.Stmt, name string) bool {
	sorts := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, _, ok := pkgFunc(calleeFunc(p, call))
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, isIdent := m.(*ast.Ident); isIdent && id.Name == identRoot(name) {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				sorts = true
			}
		}
		return !sorts
	})
	return sorts
}

// identRoot returns the leading identifier of a (possibly selector) text.
func identRoot(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' || name[i] == '[' {
			return name[:i]
		}
	}
	return name
}
