// Command numalint runs the repository's custom static-analysis suite over
// the given packages (see internal/lint): determinism, hotpath, tracerguard,
// and faultpurity checks plus directive hygiene. It exits 1 when any
// diagnostic is reported and 2 when loading or type-checking fails, so CI
// can gate on a clean tree.
//
// Usage:
//
//	numalint [-json] [-<check>=false ...] [packages]
//
// Packages default to ./... . Findings print as file:line:col: check:
// message, or as a JSON array with -json. A finding is suppressed by a
// //numalint:allow <check> <reason> directive on its line or the line above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ccnuma/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list the suite's checks and exit")
	enabled := map[string]*bool{}
	for _, a := range lint.Analyzers() {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	enabled[lint.DirectiveCheck] = flag.Bool(lint.DirectiveCheck, true,
		"validate //numalint directives (malformed, unknown check, suppresses nothing)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", lint.DirectiveCheck, "directive hygiene (always-on unless -directive=false)")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "numalint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numalint:", err)
		os.Exit(2)
	}

	suite := &lint.Suite{Cfg: lint.DefaultConfig(), Disabled: map[string]bool{}}
	for name, on := range enabled {
		if !*on {
			suite.Disabled[name] = true
		}
	}

	diags := suite.Run(pkgs)
	cwd, _ := os.Getwd()
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !filepath.IsAbs(rel) {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "numalint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "numalint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}
