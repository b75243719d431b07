package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// checkFixture runs one analyzer over the fixture package in dir and
// verifies its findings against `// want "regexp"` comments, the
// analysistest convention: each want expectation must be matched by
// exactly one diagnostic on its line, and every diagnostic must be
// claimed by an expectation. Returned problems are human-readable
// mismatches; an empty slice means the fixture passed.
func checkFixture(a *Analyzer, dir string) (problems []string, err error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := loader.LoadDir(dir, "fixture/"+a.Name)
	if err != nil {
		return nil, err
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		return nil, err
	}

	wants, err := collectWants(pkg)
	if err != nil {
		return nil, err
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.claimed && w.re.MatchString(d.Message) {
				w.claimed = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s: %s", d.Pos, d.Message))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.claimed {
				problems = append(problems, fmt.Sprintf("no diagnostic at %s matching %q", key, w.re))
			}
		}
	}
	return problems, nil
}

type want struct {
	re      *regexp.Regexp
	claimed bool
}

// collectWants indexes the fixture's `// want` comments by file:line.
func collectWants(pkg *Package) (map[string][]*want, error) {
	wants := make(map[string][]*want)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, lit := range splitQuoted(text) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("fixture %s: bad want literal %s: %w", key, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("fixture %s: bad want pattern %q: %w", key, pat, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants, nil
}

// splitQuoted splits `"a" "b c"` into its quoted literals.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 || s[0] != '"' {
			return out
		}
		end := 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
}
