package wordcount

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blobseer/internal/mapreduce"
)

// emitted runs fn against an emitter and returns what it wrote, one
// "key<TAB>value" line per record.
func emitted(fn func(out *mapreduce.Emitter)) []string {
	var buf bytes.Buffer
	fn(mapreduce.NewEmitter(&buf))
	if buf.Len() == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// reduce runs Reduce over one group and returns the sum it emits.
func reduce(values ...string) string {
	group := make([][]byte, len(values))
	for i, v := range values {
		group[i] = []byte(v)
	}
	lines := emitted(func(out *mapreduce.Emitter) { Reduce([]byte("w"), group, out) })
	return strings.TrimPrefix(strings.Join(lines, "|"), "w\t")
}

func TestMapSplitsWords(t *testing.T) {
	got := emitted(func(out *mapreduce.Emitter) { Map([]byte("k"), []byte("  the quick\tbrown  fox "), out) })
	want := []string{"the\t1", "quick\t1", "brown\t1", "fox\t1"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestReduceSums(t *testing.T) {
	if out := reduce("1", "2", "3"); out != "6" {
		t.Errorf("sum = %q", out)
	}
	// Bad values are skipped, not fatal.
	if out := reduce("1", "x", "2"); out != "3" {
		t.Errorf("sum with junk = %q", out)
	}
}

func TestReferenceCount(t *testing.T) {
	ref := ReferenceCount("a b a\nc a")
	if ref["a"] != 3 || ref["b"] != 1 || ref["c"] != 1 {
		t.Errorf("ref = %v", ref)
	}
}

func TestCombinerAssociativity(t *testing.T) {
	// reduce(combine(x), combine(y)) == reduce(x ++ y)
	part1 := []string{"1", "1", "1"}
	part2 := []string{"1", "1"}
	combined := reduce(reduce(part1...), reduce(part2...))
	direct := reduce(append(part1, part2...)...)
	if combined != direct {
		t.Errorf("combined=%q direct=%q", combined, direct)
	}
	if n, _ := strconv.Atoi(direct); n != 5 {
		t.Errorf("direct = %q", direct)
	}
}

// TestRecordCostsNoObject: neither cutting a line into words nor
// rendering a sum allocates.
func TestRecordCostsNoObject(t *testing.T) {
	out := mapreduce.NewEmitter(io.Discard)
	line := []byte("the quick brown fox jumps over the lazy dog")
	group := [][]byte{[]byte("1"), []byte("12"), []byte("123")}
	out.Emit(line, line) // size the emitter's line buffer
	if n := testing.AllocsPerRun(100, func() { Map(nil, line, out) }); n != 0 {
		t.Errorf("map allocates %.0f objects per line", n)
	}
	if n := testing.AllocsPerRun(100, func() { Reduce(line[:3], group, out) }); n != 0 {
		t.Errorf("reduce allocates %.0f objects per group", n)
	}
}
