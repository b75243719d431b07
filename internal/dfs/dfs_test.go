package dfs

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"blobseer/internal/wire"
)

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"/":          "/",
		"/a":         "/a",
		"/a/b/c":     "/a/b/c",
		"//a///b/":   "/a/b",
		"/a/./b":     "/a/b",
		"/out/part0": "/out/part0",
	}
	for in, want := range cases {
		got, err := CleanPath(in)
		if err != nil {
			t.Errorf("CleanPath(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "relative", "a/b", "/a/../b", ".."} {
		if _, err := CleanPath(bad); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("CleanPath(%q) err = %v, want ErrInvalidPath", bad, err)
		}
	}
}

func TestParentBase(t *testing.T) {
	cases := []struct{ p, parent, base string }{
		{"/a/b/c", "/a/b", "c"},
		{"/a", "/", "a"},
		{"/", "/", ""},
	}
	for _, c := range cases {
		if got := Parent(c.p); got != c.parent {
			t.Errorf("Parent(%q) = %q, want %q", c.p, got, c.parent)
		}
		if got := Base(c.p); got != c.base {
			t.Errorf("Base(%q) = %q, want %q", c.p, got, c.base)
		}
	}
}

func TestAncestors(t *testing.T) {
	got := Ancestors("/a/b/c")
	want := []string{"/a", "/a/b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ancestors = %v, want %v", got, want)
	}
	if got := Ancestors("/a"); len(got) != 0 {
		t.Errorf("Ancestors(/a) = %v", got)
	}
}

func TestCleanPathIdempotent(t *testing.T) {
	f := func(s string) bool {
		p, err := CleanPath("/" + s)
		if err != nil {
			return true // invalid inputs are fine, just must not panic
		}
		p2, err := CleanPath(p)
		return err == nil && p2 == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPathDecode: a namespace request cleans the paths it names as it
// decodes, so whatever bytes arrive, a decode either fails or yields
// absolute paths that CleanPath leaves as they are. Each input is
// decoded both as a PathReq and as a PathPairReq. The malformed seeds
// are in testdata/fuzz.
func FuzzPathDecode(f *testing.F) {
	f.Add(wire.AppendString(wire.AppendString(nil, "/a/b"), "/c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		clean := func(p string) {
			if c, err := CleanPath(p); err != nil || c != p {
				t.Fatalf("decoded path %q is not clean: CleanPath = %q, %v", p, c, err)
			}
		}
		var one PathReq
		if one.DecodeFrom(wire.NewReader(data)) == nil {
			clean(one.Path)
		}
		var pair PathPairReq
		if pair.DecodeFrom(wire.NewReader(data)) == nil {
			clean(pair.Src)
			clean(pair.Dst)
		}
	})
}
