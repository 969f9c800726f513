// Package lint is numalint: a domain-specific static-analysis suite that
// enforces the simulator's headline invariants at the source level, before a
// violation can reach the runtime tests that would otherwise be the first to
// notice.
//
// The suite currently carries four checks plus directive hygiene:
//
//   - determinism: inside the deterministic packages (sim, core, obs,
//     report), flag wall-clock reads (time.Now/time.Since), the global
//     math/rand source, select statements that race multiple channels or
//     poll readiness through a default clause, reads of the host's CPU
//     count (runtime.NumCPU/GOMAXPROCS), and map iteration whose body is
//     order-dependent — each one a way to make two runs of the same seed
//     diverge, including across worker counts.
//   - hotpath: functions annotated //numalint:hotpath must not contain
//     allocation-inducing constructs: closure literals, fmt calls, append
//     whose result is not reassigned over its own backing slice, or values
//     of basic type boxed into interfaces.
//   - tracerguard: every call to a guarded emitter method (obs.Tracer
//     Emit/EmitNow, obs.Recorder Record) must sit behind the nil-check
//     branch pattern (an On() or != nil guard), so a disabled instrument
//     keeps costing one branch and zero argument construction. Methods of
//     the guarded type itself are exempt — they implement the nil
//     tolerance the guard relies on.
//   - faultpurity: the fault package may draw randomness only from its
//     private sim.Rand stream — foreign RNGs and wall-clock reads are
//     errors, because a chaos run must replay exactly from its seed.
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//numalint:allow <check> <reason>
//
// Consecutive allow lines form one block that applies to each of those
// lines and the first following line, so one statement can carry several
// audited suppressions. The reason is mandatory; a directive naming an
// unknown check, missing its reason, or suppressing nothing is itself
// reported (check "directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Config scopes the checks. The zero value checks nothing useful; use
// DefaultConfig for this repository's invariants. Tests point the scopes at
// corpus packages instead.
type Config struct {
	// DeterminismScope lists the import-path prefixes whose packages must be
	// deterministic (the byte-identical-output guarantee).
	DeterminismScope []string
	// FaultScope lists the import-path prefixes held to fault purity.
	FaultScope []string
	// Guarded lists the emitter types whose hot emit methods must sit behind
	// an On()/nil guard at every call site (tracerguard).
	Guarded []GuardedEmitter
}

// GuardedEmitter names one observability type whose listed methods are
// nil-tolerant no-ops: tracerguard requires every call site outside the
// type's own methods to prove the receiver is non-nil first, keeping the
// disabled instrument at its one-branch cost.
type GuardedEmitter struct {
	// Pkg and Type identify the emitter type by import path and name.
	Pkg  string
	Type string
	// Methods are the guarded method names.
	Methods []string
}

// DefaultConfig returns the scopes enforced on this repository.
func DefaultConfig() Config {
	return Config{
		DeterminismScope: []string{
			"ccnuma/internal/sim",
			"ccnuma/internal/core",
			"ccnuma/internal/obs",
			"ccnuma/internal/report",
			"ccnuma/internal/serve",
		},
		FaultScope: []string{"ccnuma/internal/fault"},
		Guarded: []GuardedEmitter{
			{Pkg: "ccnuma/internal/obs", Type: "Tracer", Methods: []string{"Emit", "EmitNow"}},
			{Pkg: "ccnuma/internal/obs", Type: "Recorder", Methods: []string{"Record"}},
		},
	}
}

// inScope reports whether an import path falls under one of the prefixes.
func inScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one check: a name (the flag and directive key), a one-line
// doc, and the per-package run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// DirectiveCheck is the name under which directive-hygiene findings
// (malformed, unknown-check, or unused allow directives) are reported.
const DirectiveCheck = "directive"

// Analyzers returns the suite's checks in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{determinism, hotpath, tracerguard, faultpurity}
}

// knownCheck reports whether name is a check an allow directive may name.
func knownCheck(name string) bool {
	if name == DirectiveCheck {
		return true
	}
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Cfg  Config

	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.check,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Suite runs a set of analyzers under one configuration.
type Suite struct {
	Cfg Config
	// Disabled names checks to skip (flag-controlled in cmd/numalint).
	Disabled map[string]bool
}

// enabled reports whether the named check should run.
func (s *Suite) enabled(name string) bool { return !s.Disabled[name] }

// Run applies the enabled analyzers to every package, resolves allow
// directives, and returns the surviving findings sorted by position.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	var raw []Diagnostic
	var allows []*allowDirective
	var dirDiags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			if !s.enabled(a.Name) {
				continue
			}
			a.Run(&Pass{
				Fset:  pkg.Fset,
				Pkg:   pkg,
				Cfg:   s.Cfg,
				check: a.Name,
				diags: &raw,
			})
		}
		al, dd := collectDirectives(pkg)
		allows = append(allows, al...)
		dirDiags = append(dirDiags, dd...)
	}

	allowT := newAllowTable(allows)

	kept := raw[:0]
	for _, d := range raw {
		if allowT.allowsAt(d.Check, d.File, d.Line) {
			continue
		}
		kept = append(kept, d)
	}

	if s.enabled(DirectiveCheck) {
		kept = append(kept, dirDiags...)
		for _, al := range allows {
			// A directive for a disabled check cannot be proven stale.
			if !al.used && s.enabled(al.check) {
				kept = append(kept, Diagnostic{
					Check: DirectiveCheck,
					File:  al.file, Line: al.line, Col: al.col,
					Message: fmt.Sprintf("allow directive for %q suppresses nothing; remove it", al.check),
				})
			}
		}
	}

	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return kept
}

// allowTable indexes allow directives by file for suppression. Consecutive allow lines form one block: each directive in the
// block matches every line of the block plus the first line after it, so a
// statement can stack several audited suppressions above itself.
type allowTable struct {
	byFile map[string][]*allowDirective
	lines  map[string]map[int]bool // file -> lines carrying an allow
}

func newAllowTable(allows []*allowDirective) *allowTable {
	t := &allowTable{
		byFile: map[string][]*allowDirective{},
		lines:  map[string]map[int]bool{},
	}
	for _, al := range allows {
		t.byFile[al.file] = append(t.byFile[al.file], al)
		if t.lines[al.file] == nil {
			t.lines[al.file] = map[int]bool{}
		}
		t.lines[al.file][al.line] = true
	}
	return t
}

// allowsAt reports whether an allow for check covers the given file:line,
// marking every covering directive used.
func (t *allowTable) allowsAt(check, file string, line int) bool {
	lines := t.lines[file]
	hit := false
	for _, al := range t.byFile[file] {
		if al.check != check {
			continue
		}
		end := al.line
		for lines[end+1] {
			end++
		}
		if line >= al.line && line <= end+1 {
			al.used = true
			hit = true
		}
	}
	return hit
}

// allowDirective is one parsed //numalint:allow comment.
type allowDirective struct {
	check  string
	reason string
	file   string
	line   int
	col    int
	used   bool
}

// HotpathDirective marks a function for the hotpath check when it appears in
// the function's doc comment.
const HotpathDirective = "numalint:hotpath"

// collectDirectives parses every numalint directive in the package,
// returning the allow directives and the hygiene findings (malformed
// directives, unknown check names, misplaced hotpath annotations).
func collectDirectives(pkg *Package) ([]*allowDirective, []Diagnostic) {
	var allows []*allowDirective
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			Check: DirectiveCheck,
			File:  p.Filename, Line: p.Line, Col: p.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}

	for _, f := range pkg.Files {
		// Hotpath directives are only meaningful in a function's doc
		// comment; anywhere else they silently annotate nothing.
		funcDocs := map[*ast.CommentGroup]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}

		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments cannot carry directives
				}
				rest, ok := strings.CutPrefix(text, "numalint:")
				if !ok {
					continue
				}
				switch {
				case rest == "hotpath":
					if !funcDocs[cg] {
						report(c.Pos(), "hotpath directive must be part of a function's doc comment")
					}
				case strings.HasPrefix(rest, "allow"):
					fields := strings.Fields(strings.TrimPrefix(rest, "allow"))
					if len(fields) < 2 {
						report(c.Pos(), "allow directive needs a check name and a reason: //numalint:allow <check> <reason>")
						continue
					}
					if !knownCheck(fields[0]) {
						report(c.Pos(), "allow directive names unknown check %q", fields[0])
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					allows = append(allows, &allowDirective{
						check:  fields[0],
						reason: strings.Join(fields[1:], " "),
						file:   p.Filename,
						line:   p.Line,
						col:    p.Column,
					})
				default:
					report(c.Pos(), "unknown numalint directive %q", "numalint:"+rest)
				}
			}
		}
	}
	return allows, diags
}

// isHotpath reports whether the function's doc comment carries the
// //numalint:hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimPrefix(c.Text, "//") == HotpathDirective {
			return true
		}
	}
	return false
}

// inspectStack walks root like ast.Inspect but hands fn the stack of
// ancestors (outermost first, not including n itself). Returning false
// skips n's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		stack = append(stack, n)
		if !descend {
			// ast.Inspect will not visit children, so it will not deliver
			// the matching nil either: pop now.
			stack = stack[:len(stack)-1]
		}
		return descend
	})
}
