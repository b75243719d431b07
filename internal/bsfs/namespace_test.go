package bsfs

import (
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

// nsModel is a namespace as a test sees it: every entry by value, "/"
// included.
type nsModel map[string]EntryResp

func (m nsModel) with(p string, e EntryResp) nsModel {
	c := maps.Clone(m)
	c[p] = e
	return c
}

func (m nsModel) without(p string) nsModel {
	c := maps.Clone(m)
	delete(c, p)
	return c
}

// mkdirs returns the states m passes through as dir and its missing
// parents are made, outermost first: one per journal record.
func (m nsModel) mkdirs(dir string) []nsModel {
	var out []nsModel
	for _, p := range append(dfs.Ancestors(dir), dir) {
		if _, ok := m[p]; !ok {
			m = m.with(p, EntryResp{IsDir: true})
			out = append(out, m)
		}
	}
	return out
}

func dumpTree(tr *dfs.Tree[*EntryResp]) nsModel {
	m := nsModel{}
	tr.Each(func(p string, e *EntryResp) { m[p] = *e })
	return m
}

// orphans names the entries whose parent is not a directory.
func (m nsModel) orphans() []string {
	var out []string
	for p := range m {
		if parent, ok := m[dfs.Parent(p)]; p != "/" && (!ok || !parent.IsDir) {
			out = append(out, p)
		}
	}
	return out
}

func openTree(t *testing.T, path string) *dfs.Tree[*EntryResp] {
	t.Helper()
	tr, err := dfs.OpenTree(path, &EntryResp{IsDir: true}, (*EntryResp).AppendTo, decodeEntry)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNamespaceReplaysParentLog replays testdata/namespace-parent.log,
// a journal the namespace manager wrote while it kept its own map, and
// must serve exactly the tree that manager held. The log's record
// format ("e/<path>" → EntryResp) is the tree's. It was written by a
// cluster of 4 providers and 2 metadata providers with a journal
// directory, a deployment with 1 KiB blocks, and one mount running:
//
//	Mkdir     /warehouse/stage/daily
//	WriteFile /warehouse/stage/part-0 (blob 1), /warehouse/final (blob 2),
//	          /scratch/tmp/t-0 (blob 3)
//	Rename    /warehouse/stage/part-0 → /warehouse/final (over a file)
//	Rename    /warehouse/final → /warehouse/final (onto itself)
//	Delete    /scratch/tmp/t-0
//
// then closing the deployment and copying <JournalDir>/namespace.log.
func TestNamespaceReplaysParentLog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "namespace-parent.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "namespace.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ns, err := NewNamespaceManager(transport.NewMemNet(), transport.MakeAddr("ns", SvcNamespace), nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	dir := EntryResp{IsDir: true}
	want := nsModel{
		"/":                      dir,
		"/scratch":               dir,
		"/scratch/tmp":           dir,
		"/warehouse":             dir,
		"/warehouse/final":       {Blob: 1, PageSize: 1024},
		"/warehouse/stage":       dir,
		"/warehouse/stage/daily": dir,
	}
	if got := dumpTree(ns.tree); !maps.Equal(got, want) {
		t.Fatalf("replayed tree %v, want %v", got, want)
	}
}

// crashCuts yields every offset in [from, to], or a seeded eighth of
// them under -short, as kvlog's crash-point tests do.
func crashCuts(from, to int64, rng *rand.Rand, each func(cut int64)) {
	for cut := from; cut <= to; cut++ {
		if testing.Short() && rng.Intn(8) != 0 {
			continue
		}
		each(cut)
	}
}

// TestNamespaceCrashPoints runs a scripted sequence of namespace
// changes on a journaled tree, then cuts a copy of its journal at every
// byte offset and reopens each copy. At every cut every entry's parent
// is a directory, and the tree is the model after some prefix of the
// ops, or inside the op the cut tore, at a state dfs.Tree documents: a
// prefix of the parents a create or mkdir makes, or a rename's dst
// written beside its src, both naming the moved file. A longer cut
// never reopens to an earlier state. The script is too small to compact
// the journal; kvlog's TestJournalCrashPoints covers a crash inside a
// compaction.
func TestNamespaceCrashPoints(t *testing.T) {
	file := func(blob uint64) *EntryResp { return &EntryResp{Blob: blob, PageSize: 4096} }
	type op struct {
		kind byte // 'm'kdir, 'c'reate, 'r'ename, 'd'elete
		a, b string
		blob uint64
	}
	script := []op{
		{kind: 'm', a: "/a/b/c"},
		{kind: 'c', a: "/a/b/c/f1", blob: 1},
		{kind: 'c', a: "/x/y/f2", blob: 2},
		{kind: 'c', a: "/a/f3", blob: 3},
		{kind: 'r', a: "/x/y/f2", b: "/a/b/c/f1"}, // over a file
		{kind: 'r', a: "/a/f3", b: "/n/m/f3"},     // making dst's parents
		{kind: 'r', a: "/n/m/f3", b: "/n/m/f3"},   // onto itself: no record
		{kind: 'd', a: "/x/y"},                    // emptied by the rename
		{kind: 'd', a: "/a/b/c/f1"},
		{kind: 'c', a: "/a/b/c/f1", blob: 4},
		{kind: 'r', a: "/a/b/c/f1", b: "/x/f1"},
	}

	path := filepath.Join(t.TempDir(), "namespace.log")
	tr := openTree(t, path)
	states := []nsModel{{"/": {IsDir: true}}}
	// ends[i] is the journal's size after op i-1, and last[i] the index
	// of the state it left; ends[0] and last[0] are the empty journal's.
	ends, last := []int64{0}, []int{0}
	for _, o := range script {
		m := states[len(states)-1]
		var err error
		switch o.kind {
		case 'm':
			err = tr.Mkdir(o.a)
			states = append(states, m.mkdirs(o.a)...)
		case 'c':
			_, err = tr.Create(o.a, file(o.blob))
			states = append(states, m.mkdirs(dfs.Parent(o.a))...)
			states = append(states, states[len(states)-1].with(o.a, *file(o.blob)))
		case 'r':
			_, _, err = tr.Rename(o.a, o.b)
			if o.a != o.b {
				states = append(states, m.mkdirs(dfs.Parent(o.b))...)
				both := states[len(states)-1].with(o.b, m[o.a])
				states = append(states, both, both.without(o.a))
			}
		case 'd':
			_, err = tr.Delete(o.a)
			states = append(states, m.without(o.a))
		}
		if err != nil {
			t.Fatalf("%c %s %s: %v", o.kind, o.a, o.b, err)
		}
		if got := dumpTree(tr); !maps.Equal(got, states[len(states)-1]) {
			t.Fatalf("after %c %s %s: tree %v, model %v", o.kind, o.a, o.b, got, states[len(states)-1])
		}
		size, _ := tr.Store().Size()
		ends, last = append(ends, size), append(last, len(states)-1)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("journal is %d bytes, the store counted %d", len(data), ends[len(ends)-1])
	}

	cutPath := filepath.Join(t.TempDir(), "cut.log")
	rng := rand.New(rand.NewSource(1))
	prev := 0
	crashCuts(0, int64(len(data)), rng, func(cut int64) {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rt := openTree(t, cutPath)
		got := dumpTree(rt)
		rt.Close()
		if bad := got.orphans(); len(bad) > 0 {
			t.Fatalf("cut %d: %v have no directory above them: %v", cut, bad, got)
		}
		// Op i is whole below the cut; op i+1, if any, is torn.
		i := 0
		for i+1 < len(ends) && ends[i+1] <= cut {
			i++
		}
		hi := last[i]
		if i+1 < len(last) {
			hi = last[i+1] - 1
		}
		j := slices.IndexFunc(states[last[i]:hi+1], func(s nsModel) bool { return maps.Equal(s, got) })
		if j < 0 {
			t.Fatalf("cut %d (after op %d): tree %v is none of the states %v", cut, i, got, states[last[i]:hi+1])
		}
		j += last[i]
		if cut == ends[i] && j != last[i] {
			t.Fatalf("cut %d ends op %d but reopens to state %d, not %d", cut, i, j, last[i])
		}
		if j < prev {
			t.Fatalf("cut %d reopens to state %d, behind the shorter cut's %d", cut, j, prev)
		}
		prev = j
	})
}
