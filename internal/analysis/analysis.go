// Package analysis is the project's static-analysis suite: a small
// self-contained go/analysis-style framework plus the analyzers that
// machine-check this codebase's concurrency and hygiene invariants —
// the rules that keep BlobSeer's "lock-free reads under concurrent
// appends" claim true and that were previously enforced only by
// reviewer vigilance.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic; analysistest-style fixtures under
// testdata/src) but is built on the standard library alone
// (go/ast, go/types, go/build), so the module stays dependency-free:
// the environments this repo builds in cannot fetch modules, and the
// runtime tree must not grow a dependency for the sake of a linter.
//
// Analyzers:
//
//   - lockhold:   no blocking operation (rpc Call, transport dial,
//     channel send/receive, Wait*, kvlog append) while a sync.Mutex /
//     RWMutex is held in the enclosing function.
//   - ctxflow:    context flows: rpc/span calls thread the enclosing
//     context; context.Background() is banned outside main packages,
//     tests, and //lint:detached-justified cleanup sites.
//   - droppederr: no silent `_ =` or bare-call discards of
//     error-returning expressions in production code.
//   - framealias: a wire.Reader.Bytes result (a slice of an rpc frame
//     that is about to be recycled) must not be stored or returned.
//   - walltime:   packages that carry an injected clock must not call
//     time.Now/Sleep/After/... directly.
//   - spanend:    every obs.StartSpan/StartChild/StartTrace/StartRemote
//     result reaches End (or escapes) in the function that created it.
//
// Exceptions are per-line justification markers the analyzers respect:
//
//	//lint:<analyzer> <reason>
//
// on the flagged line or the line above it. A marker without a reason
// is itself a violation — the point is that every exception carries
// its why in the diff. There is no package- or file-level suppression.
//
// cmd/bslint runs the whole suite over import patterns (`bslint ./...`)
// and is wired into CI as a hard gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's short identifier; it is also the
	// justification-marker key (`//lint:<name> reason`).
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// markers maps "file:line" to the marker keys justified on that
	// line (built once per package by the runner).
	markers map[string]map[string]bool

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a justification marker for
// this analyzer covers the line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.justified(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Justified reports whether a marker named key covers the line at pos
// or the line above it — for analyzers whose marker key differs from
// their name (ctxflow's `//lint:detached`).
func (p *Pass) Justified(pos token.Pos, key string) bool {
	position := p.Fset.Position(pos)
	return p.markerAt(position.Filename, position.Line, key) ||
		p.markerAt(position.Filename, position.Line-1, key)
}

func (p *Pass) justified(position token.Position) bool {
	return p.markerAt(position.Filename, position.Line, p.Analyzer.Name) ||
		p.markerAt(position.Filename, position.Line-1, p.Analyzer.Name)
}

func (p *Pass) markerAt(file string, line int, key string) bool {
	m := p.markers[fmt.Sprintf("%s:%d", file, line)]
	return m != nil && m[key]
}

// markerPrefix introduces a per-line justification comment:
// `//lint:<key> <reason>`.
const markerPrefix = "//lint:"

// buildMarkers scans every comment in the package for justification
// markers and indexes them by file:line. A marker with no reason text
// is reported as a violation in its own right by the runner.
func buildMarkers(fset *token.FileSet, files []*ast.File) (map[string]map[string]bool, []Diagnostic) {
	markers := make(map[string]map[string]bool)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, markerPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, markerPrefix)
				key, reason, _ := strings.Cut(rest, " ")
				key = strings.TrimSpace(key)
				if key == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "marker",
						Pos:      pos,
						Message:  fmt.Sprintf("justification marker %q carries no reason", markerPrefix+key),
					})
					continue
				}
				lineKey := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if markers[lineKey] == nil {
					markers[lineKey] = make(map[string]bool)
				}
				markers[lineKey][key] = true
			}
		}
	}
	return markers, bad
}

// RunAnalyzers applies every analyzer to one loaded package and
// returns the findings, position-sorted.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	markers, bad := buildMarkers(pkg.Fset, pkg.Files)
	diags := bad
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			markers:   markers,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// isTestFile reports whether the position is inside a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
