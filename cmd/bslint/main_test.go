package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBslint compiles the command once into the test's temp dir.
func buildBslint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bslint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestBslintSmoke: the suite must load, type-check a trivial package
// (one importing only stdlib), and exit 0 with no findings.
func TestBslintSmoke(t *testing.T) {
	bin := buildBslint(t)

	out, err := exec.Command(bin, "./internal/analysis/testdata/clockless").CombinedOutput()
	if err != nil {
		t.Fatalf("bslint over a clean package failed: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("expected no output over a clean package, got:\n%s", out)
	}
}

// TestBslintList: -list names every analyzer in the suite.
func TestBslintList(t *testing.T) {
	bin := buildBslint(t)

	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("bslint -list: %v\n%s", err, out)
	}
	for _, name := range []string{"ctxflow", "droppederr", "framealias", "lockhold", "spanend", "walltime"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestBslintFindsViolations: a fixture with known violations must
// produce findings and exit 1 — the CI gate actually gates.
func TestBslintFindsViolations(t *testing.T) {
	bin := buildBslint(t)

	cmd := exec.Command(bin, "-only", "walltime", "./internal/analysis/testdata/walltime")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected exit 1 over a violating fixture, got success:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit code 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "direct time.Now") {
		t.Errorf("findings output missing the walltime diagnostic:\n%s", out)
	}
}
