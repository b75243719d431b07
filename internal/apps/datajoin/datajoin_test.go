package datajoin

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"blobseer/internal/mapreduce"
)

// runLocal drives Map/Reduce functions in-memory, the way the
// framework does: a group's values reach Reduce in byte order.
func runLocal(t *testing.T, fileA, fileB, contentA, contentB string) map[string]int {
	t.Helper()
	job := Job(fileA, fileB, "/out", 1, 0)
	var inter bytes.Buffer
	emitMap := mapreduce.NewEmitter(&inter)
	feed := func(path, content string) {
		off := 0
		for _, line := range strings.Split(content, "\n") {
			if line != "" {
				job.Map([]byte(path+":"+itoa(off)), []byte(line), emitMap)
			}
			off += len(line) + 1
		}
	}
	feed(fileA, contentA)
	feed(fileB, contentB)

	groups := map[string][][]byte{}
	for _, line := range strings.Split(strings.TrimSuffix(inter.String(), "\n"), "\n") {
		k, v, _ := strings.Cut(line, "\t")
		groups[k] = append(groups[k], []byte(v))
	}
	var rows bytes.Buffer
	emitReduce := mapreduce.NewEmitter(&rows)
	for k, values := range groups {
		slices.SortFunc(values, bytes.Compare)
		job.Reduce([]byte(k), values, emitReduce)
	}
	out := map[string]int{}
	for _, row := range strings.Split(rows.String(), "\n") {
		if row != "" {
			out[row]++
		}
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestJoinBasics(t *testing.T) {
	a := "k1\tva1\nk2\tva2\nk3\tva3\n"
	b := "k1\tvb1\nk1\tvb2\nk4\tvb4\n"
	got := runLocal(t, "/a", "/b", a, b)
	want := map[string]int{
		"k1\tva1\tvb1": 1,
		"k1\tva1\tvb2": 1,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for row, n := range want {
		if got[row] != n {
			t.Errorf("row %q = %d, want %d", row, got[row], n)
		}
	}
}

func TestJoinCrossProduct(t *testing.T) {
	a := "k\ta1\nk\ta2\n"
	b := "k\tb1\nk\tb2\nk\tb3\n"
	got := runLocal(t, "/a", "/b", a, b)
	if len(got) != 6 {
		t.Fatalf("cross product rows = %d, want 6: %v", len(got), got)
	}
}

func TestJoinMatchesReference(t *testing.T) {
	a := "x\t1\ny\t2\nx\t3\nz\t9\n"
	b := "x\tA\ny\tB\ny\tC\nw\tD\n"
	got := runLocal(t, "/a", "/b", a, b)
	want := ReferenceJoin(a, b)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for row, n := range want {
		if got[row] != n {
			t.Errorf("row %q = %d, want %d", row, got[row], n)
		}
	}
}

func TestMalformedRecordsSkipped(t *testing.T) {
	a := "k1\tv\nmalformed-no-tab\n\tempty-key\n"
	b := "k1\tw\n"
	got := runLocal(t, "/a", "/b", a, b)
	if len(got) != 1 || got["k1\tv\tw"] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestValuesContainingTabs(t *testing.T) {
	a := "k\tval\twith\ttabs\n"
	b := "k\tother\n"
	got := runLocal(t, "/a", "/b", a, b)
	if got["k\tval\twith\ttabs\tother"] != 1 {
		t.Fatalf("got %v", got)
	}
}

// TestRecordCostsNoObject: a record goes through the map and the reduce
// function without a heap object — no tagged or joined value is built,
// and Emit's variadic slice stays on the caller's stack.
func TestRecordCostsNoObject(t *testing.T) {
	job := Job("/a", "/b", "/out", 1, 0)
	out := mapreduce.NewEmitter(io.Discard)
	key, line, user := []byte("/a:4096"), []byte("user000001\tplays=radiohead:12"), []byte("user000001")
	values := [][]byte{[]byte("A\x00a1"), []byte("A\x00a2"), []byte("B\x00b1"), []byte("B\x00b2")}
	out.Emit(key, line) // size the emitter's line buffer
	if n := testing.AllocsPerRun(100, func() { job.Map(key, line, out) }); n != 0 {
		t.Errorf("map allocates %.0f objects per record", n)
	}
	if n := testing.AllocsPerRun(100, func() { job.Reduce(user, values, out) }); n != 0 {
		t.Errorf("reduce allocates %.0f objects per group of four values", n)
	}
}
