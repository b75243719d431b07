package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzerFixtures drives every analyzer over its testdata
// fixture, analysistest-style: each `// want "re"` comment must be
// matched by exactly one diagnostic on its line, and no diagnostic
// may go unclaimed. This covers positive findings, negatives, and the
// justification-marker paths in one pass per analyzer.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			problems, err := checkFixture(a, filepath.Join("testdata", a.Name))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestReasonlessMarkerIsAViolation: a bare `//lint:<key>` with no
// reason must be reported itself AND must fail to justify its site —
// otherwise markers degrade into silent suppressions.
func TestReasonlessMarkerIsAViolation(t *testing.T) {
	dir := filepath.Join("testdata", "badmarker")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/badmarker")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{DroppedErr})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (marker + unjustified site): %v", len(diags), diags)
	}
	var sawMarker, sawDrop bool
	for _, d := range diags {
		switch d.Analyzer {
		case "marker":
			sawMarker = true
			if !strings.Contains(d.Message, "no reason") {
				t.Errorf("marker diagnostic %q does not mention the missing reason", d.Message)
			}
		case "droppederr":
			sawDrop = true
		}
	}
	if !sawMarker || !sawDrop {
		t.Errorf("marker=%v droppederr=%v, want both: %v", sawMarker, sawDrop, diags)
	}
}

// TestWallTimeSkipsClocklessPackages: a package with no injected
// clock and not on the clockPackages list is outside walltime's
// contract entirely.
func TestWallTimeSkipsClocklessPackages(t *testing.T) {
	dir := filepath.Join("testdata", "clockless")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/clockless")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{WallTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("walltime flagged a clockless package: %v", diags)
	}
}

// TestLoaderResolvesModuleAndStdlib: the source-based loader must
// type-check a fixture that imports both a module-local package (obs)
// and stdlib — the exact resolution path bslint depends on.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	dir := filepath.Join("testdata", "spanend")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/spanend")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.TypesInfo == nil {
		t.Fatal("loaded package has no type information")
	}
	if len(pkg.Files) == 0 {
		t.Fatal("loaded package has no files")
	}
}

// TestByName covers the cmd/bslint -only lookup path.
func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown analyzer")
	}
}
