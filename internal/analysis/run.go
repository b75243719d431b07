package analysis

import "fmt"

// All returns the full analyzer suite in reporting order — the set
// cmd/bslint runs and CI gates on.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, DroppedErr, FrameAlias, LockHold, SpanEnd, WallTime}
}

// ByName resolves a comma-free analyzer name against All.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run loads every package matched by patterns (relative to the module
// containing dir) and applies the analyzers, returning all findings.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return diags, fmt.Errorf("analysis: %s: %w", pkg.Path, err)
		}
		diags = append(diags, d...)
	}
	return diags, nil
}
