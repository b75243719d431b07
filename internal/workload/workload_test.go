package workload

import (
	"strings"
	"testing"
)

func TestJoinInputsDeterministic(t *testing.T) {
	a1, b1 := JoinInputs(JoinConfig{Keys: 10, Seed: 3})
	a2, b2 := JoinInputs(JoinConfig{Keys: 10, Seed: 3})
	if a1 != a2 || b1 != b2 {
		t.Error("generation not deterministic")
	}
	a3, _ := JoinInputs(JoinConfig{Keys: 10, Seed: 4})
	if a1 == a3 {
		t.Error("seed ignored")
	}
}

func TestJoinInputsShape(t *testing.T) {
	cfg := JoinConfig{Keys: 50, DupA: 3, DupB: 5, Seed: 1}
	a, b := JoinInputs(cfg)
	linesA := strings.Count(a, "\n")
	linesB := strings.Count(b, "\n")
	if linesA != 50*3 {
		t.Errorf("file A has %d lines, want %d", linesA, 150)
	}
	if linesB != 50*5 {
		t.Errorf("file B has %d lines, want %d", linesB, 250)
	}
	for _, line := range strings.Split(strings.TrimRight(a, "\n"), "\n") {
		if !strings.Contains(line, "\t") {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestJoinExpansionFactor(t *testing.T) {
	// The defaults must produce a join blow-up in the ballpark of the
	// paper's ~10x (640 MB in -> 6.3 GB out).
	a, b := JoinInputs(JoinConfig{Keys: 200, Seed: 2})
	inBytes := len(a) + len(b)

	// Expected output bytes: per key, DupA*DupB rows of
	// len(key)+len(va)+len(vb)+2 separators (approximately).
	rowsPerKey := 8 * 8
	avgLineA := len(a) / strings.Count(a, "\n")
	outBytes := 200 * rowsPerKey * (avgLineA*2 - 10)
	ratio := float64(outBytes) / float64(inBytes)
	if ratio < 5 || ratio > 20 {
		t.Errorf("estimated expansion ratio %.1f, want ~10x", ratio)
	}
}

func TestTextShape(t *testing.T) {
	text := Text(10000, 5)
	if len(text) < 10000 {
		t.Errorf("len = %d", len(text))
	}
	if !strings.Contains(text, "\n") {
		t.Error("no line breaks")
	}
	if Text(1000, 5) != Text(1000, 5) {
		t.Error("not deterministic")
	}
}
