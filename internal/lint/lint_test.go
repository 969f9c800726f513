package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expected-diagnostic golden files")

// corpusConfig aims the scoped checks at the corpus packages instead of the
// real tree.
func corpusConfig() Config {
	cfg := DefaultConfig()
	cfg.DeterminismScope = []string{"corpus/determinism"}
	cfg.FaultScope = []string{"corpus/faultpurity"}
	return cfg
}

// loadCorpus loads every package directory under testdata/src/<name> with
// the synthetic import path corpus/<name>/<dir>.
func loadCorpus(t *testing.T, l *Loader, name string) []*Package {
	t.Helper()
	base := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", name, err)
	}
	var pkgs []*Package
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		p, err := l.LoadDir(filepath.Join(base, e.Name()), "corpus/"+name+"/"+e.Name())
		if err != nil {
			t.Fatalf("loading corpus %s/%s: %v", name, e.Name(), err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		t.Fatalf("corpus %s has no packages", name)
	}
	return pkgs
}

// render prints diagnostics one per line with paths relative to
// testdata/src, the format stored in the golden files.
func render(t *testing.T, diags []Diagnostic) string {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		if rel, err := filepath.Rel(base, d.File); err == nil {
			d.File = filepath.ToSlash(rel)
		}
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCorpus runs the full suite over each corpus and compares the rendered
// diagnostics against the golden files (regenerate with -update). Beyond
// the exact-match check it asserts the polarity the corpus encodes: every
// bad package yields at least one finding and no good package yields any.
func TestCorpus(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Cfg: corpusConfig()}
	for _, name := range []string{"determinism", "hotpath", "tracerguard", "faultpurity", "directive", "laneconfined", "laneescape"} {
		t.Run(name, func(t *testing.T) {
			pkgs := loadCorpus(t, l, name)
			got := render(t, suite.Run(pkgs))

			if !strings.Contains(got, "/bad/") {
				t.Errorf("corpus %s: no findings in the bad package — the check is not firing", name)
			}
			if strings.Contains(got, "/good/") {
				t.Errorf("corpus %s: findings in the good package — false positives:\n%s", name, got)
			}

			golden := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\ngot:\n%swant:\n%s", golden, got, want)
			}
		})
	}
}

// TestDisableCheck verifies the per-check kill switch: with determinism
// disabled, its corpus produces nothing — including no stale-allow report
// for the directive that would otherwise be exercised.
func TestDisableCheck(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Cfg: corpusConfig(), Disabled: map[string]bool{"determinism": true}}
	diags := suite.Run(loadCorpus(t, l, "determinism"))
	for _, d := range diags {
		t.Errorf("unexpected finding with determinism disabled: %s", d)
	}
}

// TestRealTreeClean holds the repository itself to the suite's default
// configuration: the tree must lint clean, so make lint can gate CI.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(l.ModRoot, "..."))
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Cfg: DefaultConfig()}
	for _, d := range suite.Run(pkgs) {
		t.Errorf("real tree: %s", d)
	}
}
