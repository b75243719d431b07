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

func TestFixedWidthRoundTrip(t *testing.T) {
	b := AppendBool(nil, true)
	b = AppendBool(b, false)
	r := NewReader(b)
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

// TestSliceDecodersCopyOnce: StringSlice copies the encoded region
// once — two allocations however many strings — and what it returns
// survives the buffer being overwritten (an rpc request frame is
// recycled under its decoded message). Fields copies nothing: its
// region is the encoded fields, in place.
func TestSliceDecodersCopyOnce(t *testing.T) {
	ss := []string{"", "a", "provider-17", "métadonnées"}
	ps := []string{"v0", "", "a longer value", "\x00"}
	b := AppendStringSlice(AppendStringSlice(nil, ss), ps)
	var gotS []string
	var n int
	var region []byte
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		gotS = r.StringSlice()
		n, region = r.Fields()
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
		}
	})
	if allocs > 2 {
		t.Errorf("decoding %d strings and the fields of %d took %.0f allocations, want 2 + 0", len(ss), len(ps), allocs)
	}
	if want := b[len(AppendStringSlice(nil, ss))+1:]; n != len(ps) || !bytes.Equal(region, want) || &region[0] != &want[0] {
		t.Errorf("Fields = %d, %q; want %d and the encoded fields in place", n, region, len(ps))
	}
	if cap(region) != len(region) {
		t.Errorf("Fields region: cap %d beyond len %d", cap(region), len(region))
	}
	for i := range b {
		b[i] = 0xDB
	}
	for i := range ss {
		if gotS[i] != ss[i] {
			t.Errorf("string %d: got %q want %q", i, gotS[i], ss[i])
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
		if n, region := r.Fields(); n != 0 || region != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("%s: Fields = %d, %q, err %v", name, n, region, r.Err())
		}
	}
	r := NewReader(AppendUvarint(nil, MaxBytesLen+1))
	if r.StringSlice(); !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("count over the limit: err = %v, want ErrTooLarge", r.Err())
	}
	for _, n := range []uint64{1, 1 << 20, 1 << 62} {
		b := AppendUvarint(nil, n)
		if r := NewReader(b); r.Uint64Slice() != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("count %d: Uint64Slice err = %v, want ErrShortBuffer", n, r.Err())
		}
		if r := NewReader(b); r.Count() != 0 || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("count %d: Count err = %v, want ErrShortBuffer", n, r.Err())
		}
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

// TestRemoteErrorIsWrapped: a message matches a sentinel when it is the
// sentinel's, or the sentinel's followed by ": " and detail, as a server
// that wraps the sentinel with fmt.Errorf("%w: ...") sends it; any other
// message that merely begins with the sentinel's does not.
func TestRemoteErrorIsWrapped(t *testing.T) {
	sentinel := errors.New("dfs: no such file or directory")
	for _, tc := range []struct {
		msg  string
		want bool
	}{
		{"dfs: no such file or directory", true},
		{"dfs: no such file or directory: /a/b", true},
		{"dfs: no such file or directory: ", true},
		{"dfs: no such file or directory:", false},
		{"dfs: no such file or directory /a/b", false},
		{"dfs: no such file or directoryx", false},
		{"hdfs: dfs: no such file or directory", false},
		{"dfs: no such file", false},
		{"", false},
	} {
		if got := errors.Is(RemoteError(tc.msg), sentinel); got != tc.want {
			t.Errorf("errors.Is(RemoteError(%q), %q) = %v, want %v", tc.msg, sentinel, got, tc.want)
		}
	}
	if errors.Is(RemoteError("x"), nil) {
		t.Error("errors.Is matched a nil target")
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
	full = AppendBool(full, true)
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		_ = r.String()
		_ = r.Uint64Slice()
		_ = r.Bool()
		if i < len(full) && r.Err() == nil && r.Len() == 0 {
			// Some prefixes decode fine (e.g. shorter string); that is OK
			// as long as nothing panicked.
			continue
		}
	}
}

// quick-check property: arbitrary field sequences round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, s string, p []byte, bl bool) bool {
		b := AppendUvarint(nil, u)
		b = AppendString(b, s)
		b = AppendBytes(b, p)
		b = AppendBool(b, bl)
		r := NewReader(b)
		gu := r.Uvarint()
		gs := r.String()
		gp := r.BytesCopy()
		gb := r.Bool()
		if r.Err() != nil || r.Len() != 0 {
			return false
		}
		return gu == u && gs == s && bytes.Equal(gp, p) && gb == bl
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
