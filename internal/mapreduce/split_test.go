package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// memReader is an in-memory dfs.FileReader for unit tests.
type memReader struct {
	data []byte
	pos  int
}

func (m *memReader) Read(p []byte) (int, error) {
	if m.pos >= len(m.data) {
		return 0, io.EOF
	}
	n := copy(p, m.data[m.pos:])
	m.pos += n
	return n, nil
}

func (m *memReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memReader) Close() error { return nil }

func (m *memReader) Size() uint64 { return uint64(len(m.data)) }

func (m *memReader) Refresh(ctx context.Context) (uint64, error) { return m.Size(), nil }

// collectSplit gathers all records a split yields.
func collectSplit(t *testing.T, data []byte, split Split) []string {
	t.Helper()
	lr, err := newLineReader(&memReader{data: data}, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		_, line, err := lr.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
}

func TestLineReaderSingleSplit(t *testing.T) {
	data := []byte("alpha\nbeta\ngamma\n")
	got := collectSplit(t, data, Split{Path: "/f", Offset: 0, Length: uint64(len(data))})
	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLineReaderNoTrailingNewline(t *testing.T) {
	data := []byte("one\ntwo")
	got := collectSplit(t, data, Split{Path: "/f", Offset: 0, Length: uint64(len(data))})
	if len(got) != 2 || got[1] != "two" {
		t.Fatalf("got %v", got)
	}
}

func TestLineReaderEmptyLines(t *testing.T) {
	data := []byte("\n\nx\n\n")
	got := collectSplit(t, data, Split{Path: "/f", Offset: 0, Length: uint64(len(data))})
	if len(got) != 4 {
		t.Fatalf("got %d records %v", len(got), got)
	}
}

// TestSplitsPartitionRecords is the Hadoop text-split invariant: no
// matter where split boundaries fall, every line is read by exactly
// one split.
func TestSplitsPartitionRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Random content with random line lengths (some empty).
		var sb strings.Builder
		nLines := 1 + rng.Intn(60)
		var want []string
		for i := 0; i < nLines; i++ {
			line := strings.Repeat("x", rng.Intn(30)) + fmt.Sprintf("#%d", i)
			want = append(want, line)
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		if rng.Intn(2) == 0 { // sometimes no trailing newline
			line := fmt.Sprintf("tail#%d", trial)
			want = append(want, line)
			sb.WriteString(line)
		}
		data := []byte(sb.String())

		splitSize := 1 + rng.Intn(40)
		var got []string
		for off := 0; off < len(data); off += splitSize {
			length := splitSize
			if off+length > len(data) {
				length = len(data) - off
			}
			got = append(got, collectSplit(t, data, Split{
				Path: "/f", Offset: uint64(off), Length: uint64(length),
			})...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (split=%d): got %d records, want %d\n%q",
				trial, splitSize, len(got), len(want), data)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPartitionOfSpread(t *testing.T) {
	const n = 16
	counts := make([]int, n)
	for i := 0; i < 16000; i++ {
		p := partitionOf(fmt.Appendf(nil, "key-%d", i), n)
		if p < 0 || p >= n {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 500 || c > 2000 {
			t.Errorf("partition %d holds %d of 16000 keys", p, c)
		}
	}
}

func TestPartitionOfDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := fmt.Appendf(nil, "key-%d", i)
		if partitionOf(k, 7) != partitionOf(k, 7) {
			t.Fatal("partitionOf not deterministic")
		}
	}
}

func TestEncodeDecodePairs(t *testing.T) {
	in := []refPair{{"a", "1"}, {"b", ""}, {"", "x"}, {"key with\ttab", "v"}}
	seg := bufferOf(in...).encode(nil)
	if want := refEncode(in); !bytes.Equal(seg, want) {
		t.Fatalf("encoded %q, want %q", seg, want)
	}
	if cap(seg) != len(seg) {
		t.Errorf("encoded partition has %d bytes of slack", cap(seg)-len(seg))
	}
	r := mustOpenRun(t, seg)
	if got := drain(newPairMerger([]run{r})); !slices.Equal(got, in) {
		t.Errorf("decoded %q, want %q", got, in)
	}
}

func TestCombinePairs(t *testing.T) {
	count := func(key []byte, values [][]byte, out *Emitter) {
		out.Emit(key, strconv.AppendInt(nil, int64(len(values)), 10))
	}
	var sc mapScratch
	b := bufferOf(refPair{"a", "1"}, refPair{"a", "1"}, refPair{"a", "1"}, refPair{"b", "1"})
	got := sc.combine(b, count).pairs()
	if want := []refPair{{"a", "3"}, {"b", "1"}}; !slices.Equal(got, want) {
		t.Fatalf("combined = %q, want %q", got, want)
	}
	if got := sc.combine(bufferOf(), count).pairs(); len(got) != 0 {
		t.Errorf("combine of nothing = %q", got)
	}
}
