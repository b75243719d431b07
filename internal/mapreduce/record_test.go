package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"blobseer/internal/dfs"
	"blobseer/internal/wire"
)

// refPair is one record of the reference model: what the framework
// held per record while a record was two strings.
type refPair struct{ k, v string }

// refSort orders pairs by key, then value, in Go string order.
func refSort(pairs []refPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
}

// refEncode is the encoder the record buffer replaced, kept as the
// reference for the partition format.
func refEncode(pairs []refPair) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = wire.AppendString(b, p.k)
		b = wire.AppendString(b, p.v)
	}
	return b
}

func bufferOf(pairs ...refPair) *recordBuffer {
	b := new(recordBuffer)
	for _, p := range pairs {
		b.add([]byte(p.k), [][]byte{[]byte(p.v)})
	}
	return b
}

// pairs copies the buffer's records out in index order.
func (b *recordBuffer) pairs() []refPair {
	var out []refPair
	for _, r := range b.index {
		out = append(out, refPair{string(b.key(r)), string(b.value(r))})
	}
	return out
}

func mustOpenRun(t *testing.T, seg []byte) run {
	t.Helper()
	r, err := openRun(seg)
	if err != nil {
		t.Fatalf("openRun(%q): %v", seg, err)
	}
	return r
}

// drain copies out everything a merger yields.
func drain(m *pairMerger) []refPair {
	var out []refPair
	for {
		k, v, ok := m.next()
		if !ok {
			return out
		}
		out = append(out, refPair{string(k), string(v)})
	}
}

// TestRecordBufferAgainstModel drives the whole serialized record path
// — emit in parts from scratch that is overwritten at once, sort,
// encode, cut into runs, validate, merge — against a slice of string
// pairs that is sorted with sort.Slice and encoded by the old encoder.
func TestRecordBufferAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	alphabet := []byte("ab\t\n\x00\xff")
	random := func(max int) []byte {
		p := make([]byte, rng.Intn(max+1))
		for i := range p {
			p[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return p
	}
	for trial := 0; trial < 200; trial++ {
		const parts = 3
		var em Emitter
		em.collect(parts)
		model := make([][]refPair, parts)
		scratch := make([]byte, 0, 64)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			// Key and value parts are all cut from one scratch slice,
			// as a map function renders them, and die with the call.
			scratch = append(scratch[:0], random(4)...)
			klen := len(scratch)
			var cuts []int
			for j, np := 0, 1+rng.Intn(3); j < np; j++ {
				scratch = append(scratch, random(5)...)
				cuts = append(cuts, len(scratch))
			}
			key, value := scratch[:klen], make([][]byte, len(cuts))
			for j, from := 0, klen; j < len(cuts); j++ {
				value[j] = scratch[from:cuts[j]]
				from = cuts[j]
			}
			p := partitionOf(key, parts)
			model[p] = append(model[p], refPair{string(key), string(scratch[klen:])})
			em.Emit(key, value...)
			for j := range scratch {
				scratch[j] = 0xDB
			}
		}
		if em.n != uint64(len(model[0])+len(model[1])+len(model[2])) {
			t.Fatalf("trial %d: emitter counted %d records", trial, em.n)
		}
		for p := range em.parts {
			b := &em.parts[p]
			b.sort()
			refSort(model[p])
			seg := b.encode(nil)
			if want := refEncode(model[p]); !bytes.Equal(seg, want) {
				t.Fatalf("trial %d part %d: encoded\n%q, the reference encoder renders\n%q", trial, p, seg, want)
			}
			if cap(seg) != len(seg) {
				t.Fatalf("trial %d part %d: %d bytes of slack behind the encoded partition", trial, p, cap(seg)-len(seg))
			}
			// Deal the sorted records into a random number of runs,
			// as if that many maps had produced them, and merge.
			deal := make([][]refPair, 1+rng.Intn(4))
			for _, pair := range model[p] {
				i := rng.Intn(len(deal))
				deal[i] = append(deal[i], pair)
			}
			runs := make([]run, len(deal))
			for i := range deal {
				runs[i] = mustOpenRun(t, bufferOf(deal[i]...).encode(nil))
			}
			if got := drain(newPairMerger(runs)); !slices.Equal(got, model[p]) {
				t.Fatalf("trial %d part %d: merged %q, want %q", trial, p, got, model[p])
			}
		}
	}
}

// TestEmitterWritesLines: the reduce side's emitter renders a record as
// one line and hands it to the output as one Write.
func TestEmitterWritesLines(t *testing.T) {
	var w writeLog
	out := NewEmitter(&w)
	out.Emit([]byte("k"), []byte("a"), []byte("\t"), []byte("b"))
	out.Emit([]byte("empty"))
	out.Emit(nil, []byte("v"))
	want := []string{"k\ta\tb\n", "empty\t\n", "\tv\n"}
	if !slices.Equal(w.writes, want) || out.n != 3 || out.err != nil {
		t.Fatalf("writes = %q (n = %d, err = %v), want %q", w.writes, out.n, out.err, want)
	}
}

type writeLog struct{ writes []string }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// FuzzOpenRun: no segment, however damaged, panics openRun or makes it
// read outside the segment, and one that opens yields exactly the
// records its count promises, each a view of the segment.
func FuzzOpenRun(f *testing.F) {
	// The damaged seeds are committed under testdata/fuzz/FuzzOpenRun.
	f.Add(refEncode([]refPair{{"a", "1"}, {"", ""}, {"key", "value"}}))
	f.Add(refEncode(nil))
	f.Fuzz(func(t *testing.T, seg []byte) {
		// No capacity behind the segment: a read past its end panics.
		seg = slices.Clip(seg)
		r, err := openRun(seg)
		if err != nil {
			return
		}
		count, n := binary.Uvarint(seg)
		if n <= 0 {
			t.Fatalf("openRun accepted a segment without a count: %q", seg)
		}
		if uint64(r.left) != count {
			t.Fatalf("run promises %d records, the segment's count is %d", r.left, count)
		}
		inside := func(p []byte) bool {
			for i := range seg {
				if len(p) > 0 && &seg[i] == &p[0] {
					return i+len(p) <= len(seg) && cap(p) == len(p)
				}
			}
			return len(p) == 0
		}
		var got uint64
		for m := newPairMerger([]run{r}); ; got++ {
			k, v, ok := m.next()
			if !ok {
				break
			}
			if !inside(k) || !inside(v) {
				t.Fatalf("record %d (%q, %q) is not a view of segment %q", got, k, v, seg)
			}
		}
		if got != count {
			t.Fatalf("iterated %d records, the segment's count is %d", got, count)
		}
	})
}

// TestOpenRunRejectsDamage pins the damage a reduce attempt must fail
// on before it has written anything, and the kind it tolerates.
func TestOpenRunRejectsDamage(t *testing.T) {
	good := refEncode([]refPair{{"a", "1"}, {"b", "22"}})
	for name, seg := range map[string][]byte{
		"empty segment":             nil,
		"count beyond the records":  append(binary.AppendUvarint(nil, 3), good[1:]...),
		"length running off":        good[:len(good)-1],
		"ten-byte varint":           append(bytes.Repeat([]byte{0xff}, 9), 0x7f),
		"ten-byte varint in a key":  append([]byte{1}, append(bytes.Repeat([]byte{0xff}, 9), 0x7f)...),
		"length that overflows int": binary.AppendUvarint([]byte{1}, uint64(1)<<63),
	} {
		if _, err := openRun(seg); err == nil {
			t.Errorf("%s: openRun(%q) succeeded", name, seg)
		}
	}
	r := mustOpenRun(t, append(slices.Clone(good), "trailing"...))
	if got, want := drain(newPairMerger([]run{r})), []refPair{{"a", "1"}, {"b", "22"}}; !slices.Equal(got, want) {
		t.Errorf("segment with trailing bytes yields %q, want %q", got, want)
	}
}

// appendCountingFS counts the output streams its mount opens.
type appendCountingFS struct {
	dfs.VersionedFileSystem
	appends *atomic.Int32
}

func (fs appendCountingFS) Append(ctx context.Context, path string) (dfs.FileWriter, error) {
	fs.appends.Add(1)
	return fs.VersionedFileSystem.Append(ctx, path)
}

// TestDamagedSegmentFailsBeforeOutput: every map output is cut short
// at the map/reduce barrier. Each reduce attempt must fail while it
// validates what it fetched — before it opens, let alone appends to,
// the shared output, where a half-written attempt's blocks would stay
// for good beside the retry's.
func TestDamagedSegmentFailsBeforeOutput(t *testing.T) {
	ctx := context.Background()
	d, _ := newSharedFile(t, 1<<10, 4)
	var appends atomic.Int32
	fw, err := NewFramework(FrameworkConfig{
		Net:   d.Blob.Net,
		Hosts: d.Blob.ProviderHosts(),
		Mount: func(host string) dfs.FileSystem {
			if host == "jobclient" {
				return d.Mount(host)
			}
			return appendCountingFS{d.Mount(host), &appends}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := dfs.WriteFile(ctx, fw.ClientFS(), "/in", bytes.Repeat([]byte("a b c d e f g h\n"), 500)); err != nil {
		t.Fatal(err)
	}
	word := func(_, line []byte, out *Emitter) {
		for w := range bytes.FieldsSeq(line) {
			out.Emit(w, []byte("1"))
		}
	}
	count := func(key []byte, values [][]byte, out *Emitter) {
		out.Emit(key, strconv.AppendInt(nil, int64(len(values)), 10))
	}
	_, err = fw.Run(ctx, JobConf{
		Name: "damaged", Input: []string{"/in"}, OutputDir: "/out",
		Map: word, Reduce: count, NumReducers: 2, OutputMode: SharedAppend, MaxAttempts: 2,
		MapsDoneHook: func() {
			for _, tt := range fw.Trackers() {
				tt.mu.Lock()
				for k, seg := range tt.outputs {
					tt.outputs[k] = seg[:len(seg)-1]
				}
				tt.mu.Unlock()
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "decode map") {
		t.Fatalf("job over damaged segments: %v, want a decode failure", err)
	}
	if n := appends.Load(); n != 0 {
		t.Errorf("reduce attempts opened the shared output %d times before failing", n)
	}
	if fi, err := fw.ClientFS().Stat(ctx, "/out/"+SharedOutputName); err == nil && fi.Size != 0 {
		t.Errorf("shared output holds %d bytes of failed attempts", fi.Size)
	}
}
