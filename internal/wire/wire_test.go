package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		r := NewReader(b)
		got := r.Uvarint()
		if err := r.Err(); err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("Uvarint round trip: got %d want %d", got, v)
		}
		if r.Len() != 0 {
			t.Errorf("Uvarint(%d): %d trailing bytes", v, r.Len())
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		r := NewReader(b)
		if got := r.Varint(); got != v || r.Err() != nil {
			t.Errorf("Varint(%d): got %d err %v", v, got, r.Err())
		}
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	b := AppendUint32(nil, 0xdeadbeef)
	b = AppendUint64(b, 0x0123456789abcdef)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	r := NewReader(b)
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32: got %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64: got %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool: wrong values")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d trailing bytes", r.Len())
	}
}

func TestBytesAliasAndCopy(t *testing.T) {
	src := []byte("hello, pages")
	b := AppendBytes(nil, src)
	b = AppendBytes(b, nil)

	r := NewReader(b)
	alias := r.Bytes()
	if !bytes.Equal(alias, src) {
		t.Fatalf("Bytes: got %q", alias)
	}
	empty := r.Bytes()
	if len(empty) != 0 {
		t.Fatalf("empty Bytes: got %q", empty)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}

	r2 := NewReader(b)
	cp := r2.BytesCopy()
	b[len(b)-len(src)-1]++ // corrupt underlying buffer of the alias region? ensure copy is independent
	_ = alias
	if !bytes.Equal(cp, src) {
		t.Fatalf("BytesCopy not independent: %q", cp)
	}
}

func TestStringSliceRoundTrip(t *testing.T) {
	in := []string{"", "a", "provider-17", "métadonnées"}
	b := AppendStringSlice(nil, in)
	r := NewReader(b)
	out := r.StringSlice()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(out) != len(in) {
		t.Fatalf("len: got %d want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("elem %d: got %q want %q", i, out[i], in[i])
		}
	}
}

// TestSliceDecodersCopyOnce: StringSlice and BytesSliceCopy copy the
// encoded region once — two allocations however many elements — and
// what they return survives the buffer being overwritten (an rpc
// request frame is recycled under its decoded message).
func TestSliceDecodersCopyOnce(t *testing.T) {
	ss := []string{"", "a", "provider-17", "métadonnées"}
	ps := [][]byte{[]byte("v0"), nil, []byte("a longer value"), {0}}
	b := AppendBytesSlice(AppendStringSlice(nil, ss), ps)
	var gotS []string
	var gotP [][]byte
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		gotS, gotP = r.StringSlice(), r.BytesSliceCopy()
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
		}
	})
	if allocs > 4 {
		t.Errorf("decoding %d strings and %d byte strings took %.0f allocations, want 2 + 2", len(ss), len(ps), allocs)
	}
	for i := range b {
		b[i] = 0xDB
	}
	for i := range ss {
		if gotS[i] != ss[i] {
			t.Errorf("string %d: got %q want %q", i, gotS[i], ss[i])
		}
	}
	for i := range ps {
		if !bytes.Equal(gotP[i], ps[i]) {
			t.Errorf("bytes %d: got %q want %q", i, gotP[i], ps[i])
		}
		if cap(gotP[i]) != len(gotP[i]) {
			t.Errorf("bytes %d: cap %d beyond len %d reaches into its neighbour", i, cap(gotP[i]), len(gotP[i]))
		}
	}
}

// TestSliceDecodersRejectBeforeAllocating: a count the buffer cannot
// hold fails before anything is sized by it, and an element running
// off the end fails the whole slice.
func TestSliceDecodersRejectBeforeAllocating(t *testing.T) {
	for name, b := range map[string][]byte{
		"count beyond buffer": AppendUvarint(nil, 1<<20),
		"element off the end": {2, 1, 'a', 9, 'b'},
	} {
		if got := NewReader(b).StringSlice(); got != nil {
			t.Errorf("%s: StringSlice = %q", name, got)
		}
		r := NewReader(b)
		if got := r.BytesSliceCopy(); got != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("%s: BytesSliceCopy = %q, err %v", name, got, r.Err())
		}
	}
	r := NewReader(AppendUvarint(nil, MaxBytesLen+1))
	if r.StringSlice(); !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("count over the limit: err = %v, want ErrTooLarge", r.Err())
	}
}

func TestUint64SliceRoundTrip(t *testing.T) {
	in := []uint64{0, 5, 1 << 50}
	b := AppendUint64Slice(nil, in)
	r := NewReader(b)
	out := r.Uint64Slice()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("elem %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	b := AppendError(nil, nil)
	b = AppendError(b, errors.New("boom: disk on fire"))
	r := NewReader(b)
	if err := r.Error(); err != nil {
		t.Fatalf("nil error round trip: got %v", err)
	}
	err := r.Error()
	if err == nil || err.Error() != "boom: disk on fire" {
		t.Fatalf("error round trip: got %v", err)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRemoteErrorIs(t *testing.T) {
	sentinel := errors.New("bsfs: file exists")
	remote := RemoteError(sentinel.Error())
	if !errors.Is(remote, sentinel) {
		t.Error("errors.Is(remote, sentinel) = false")
	}
	if errors.Is(remote, errors.New("other")) {
		t.Error("errors.Is matched unrelated error")
	}
}

func TestShortBufferErrors(t *testing.T) {
	r := NewReader([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if p := r.Bytes(); p != nil {
		t.Errorf("Bytes on short buffer: got %q", p)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Subsequent calls stay failed and do not panic.
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint after failure: got %d", v)
	}
}

func TestTooLargeRejected(t *testing.T) {
	b := AppendUvarint(nil, MaxBytesLen+1)
	r := NewReader(b)
	if p := r.Bytes(); p != nil {
		t.Errorf("got %d bytes", len(p))
	}
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", r.Err())
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	// Every prefix of a valid encoding must fail cleanly, not panic.
	full := AppendString(nil, "some string")
	full = AppendUint64Slice(full, []uint64{1, 2, 3})
	full = AppendUint64(full, 42)
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		_ = r.String()
		_ = r.Uint64Slice()
		_ = r.Uint64()
		if i < len(full) && r.Err() == nil && r.Len() == 0 {
			// Some prefixes decode fine (e.g. shorter string); that is OK
			// as long as nothing panicked.
			continue
		}
	}
}

// quick-check property: arbitrary field sequences round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, p []byte, bl bool) bool {
		b := AppendUvarint(nil, u)
		b = AppendVarint(b, i)
		b = AppendString(b, s)
		b = AppendBytes(b, p)
		b = AppendBool(b, bl)
		r := NewReader(b)
		gu := r.Uvarint()
		gi := r.Varint()
		gs := r.String()
		gp := r.BytesCopy()
		gb := r.Bool()
		if r.Err() != nil || r.Len() != 0 {
			return false
		}
		return gu == u && gi == i && gs == s && bytes.Equal(gp, p) && gb == bl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUvarintAny(t *testing.T) {
	f := func(v uint64) bool {
		r := NewReader(AppendUvarint(nil, v))
		return r.Uvarint() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendBytes4K(b *testing.B) {
	p := make([]byte, 4096)
	buf := make([]byte, 0, 5000)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendBytes(buf[:0], p)
	}
}

func BenchmarkReaderBytes4K(b *testing.B) {
	p := make([]byte, 4096)
	buf := AppendBytes(nil, p)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		if r.Bytes() == nil {
			b.Fatal("nil")
		}
	}
}
