package dfs

import (
	"log/slog"
	"slices"
	"strings"
	"sync"

	"blobseer/internal/kvlog"
)

// Entry is what a Tree keeps at a path: a directory or a file, usually
// a pointer to the server's record of it.
type Entry interface{ Dir() bool }

// Tree is the namespace both backends serve: one entry per clean
// absolute path, "/" always a directory, and every entry's parent a
// directory. Create, Mkdir and Rename make missing parents. It holds the
// rules the BSFS namespace manager and the HDFS namenode share; each
// server keeps only what its entries mean.
//
// A journaled tree writes every change to a kvlog store before it makes
// it: one record, "e/<path>" → the entry's encoding, per live path. The
// store is the live mapping, not an op log, so reopening replays it with
// one scan. A change that writes several records can be cut between
// them by a crash, which leaves a valid tree:
//   - a Mkdir or Create cut short keeps the parents made so far, which
//     are the outermost ones;
//   - a Rename cut short leaves dst beside src, both naming the moved
//     entry (dst is written first, so the data is never unnamed).
type Tree[E Entry] struct {
	dir    E // every directory's entry
	encode func(E, []byte) []byte

	mu      sync.Mutex
	entries map[string]E
	kv      *kvlog.Store // nil: in memory
}

// treeCompactThreshold is the journal dead-bytes bound: a rename or a
// delete leaves the old record and a tombstone behind, so a namespace
// that cycles through temporary files (every Map/Reduce job's) churns
// the store, and a reopen should not replay that churn.
const treeCompactThreshold = 1 << 20

// OpenTree returns a tree whose directories hold dir. With a path it
// is journaled to the kvlog store there through encode and decode, and
// an existing store is replayed first; with an empty path it lives in
// memory, and encode and decode may be nil.
func OpenTree[E Entry](path string, dir E, encode func(E, []byte) []byte, decode func([]byte) (E, error)) (*Tree[E], error) {
	t := &Tree[E]{dir: dir, encode: encode, entries: map[string]E{"/": dir}}
	if path == "" {
		return t, nil
	}
	kv, err := kvlog.Open(path, kvlog.Options{})
	if err != nil {
		return nil, err
	}
	err = kv.Scan(func(key string, value []byte) error {
		p, ok := strings.CutPrefix(key, "e/")
		if !ok {
			return nil
		}
		e, err := decode(value)
		t.entries[p] = e
		return err
	})
	if err != nil {
		kv.Close()
		return nil, err
	}
	t.kv = kv
	return t, nil
}

// Store returns the tree's journal, nil for an in-memory tree, for its
// owner's size and health reports. Write to it only through the tree.
func (t *Tree[E]) Store() *kvlog.Store { return t.kv }

// Close closes the journal.
func (t *Tree[E]) Close() error {
	if t.kv == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kv.Close()
}

// putLocked stores e at path, journal first: when the journal fails,
// the tree is unchanged. Caller holds t.mu.
func (t *Tree[E]) putLocked(path string, e E) error {
	if t.kv != nil {
		if err := t.kv.Put("e/"+path, t.encode(e, nil)); err != nil {
			return err
		}
		t.maybeCompactLocked()
	}
	t.entries[path] = e
	return nil
}

// deleteLocked removes path's entry, journal first. Caller holds t.mu.
func (t *Tree[E]) deleteLocked(path string) error {
	if t.kv != nil {
		if err := t.kv.Delete("e/" + path); err != nil {
			return err
		}
		t.maybeCompactLocked()
	}
	delete(t.entries, path)
	return nil
}

func (t *Tree[E]) maybeCompactLocked() {
	// Best effort: a failed compaction leaves a bigger but intact journal.
	if _, err := t.kv.CompactIfDead(treeCompactThreshold); err != nil {
		slog.Warn("dfs: namespace journal compaction", "err", err)
	}
}

// mkdirAllLocked makes dir and its missing parents, outermost first;
// it fails with ErrNotDir if a component is a file. Caller holds t.mu.
func (t *Tree[E]) mkdirAllLocked(dir string) error {
	for _, p := range append(Ancestors(dir), dir) {
		e, ok := t.entries[p]
		if !ok {
			if err := t.putLocked(p, t.dir); err != nil {
				return err
			}
			continue
		}
		if !e.Dir() {
			return ErrNotDir
		}
	}
	return nil
}

// Lookup returns path's entry, or ErrNotExist.
func (t *Tree[E]) Lookup(path string) (E, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[path]
	if !ok {
		return e, ErrNotExist
	}
	return e, nil
}

// With runs fn on path's entry under the tree's lock and returns its
// error, or fails with ErrNotExist. An entry that changes after it is
// stored is read and changed only inside With.
func (t *Tree[E]) With(path string, fn func(E) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[path]
	if !ok {
		return ErrNotExist
	}
	return fn(e)
}

// Each calls fn on every entry, "/" included, under the tree's lock.
func (t *Tree[E]) Each(fn func(path string, e E)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, e := range t.entries {
		fn(p, e)
	}
}

// List returns dir's direct children, sorted by path, with Path and
// IsDir set; fill, if not nil, sets the rest from each child's entry
// under the tree's lock.
func (t *Tree[E]) List(dir string, fill func(E, *FileInfo)) ([]FileInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dir]
	if !ok {
		return nil, ErrNotExist
	}
	if !e.Dir() {
		return nil, ErrNotDir
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var out []FileInfo
	for p, ent := range t.entries {
		name, ok := strings.CutPrefix(p, prefix)
		if !ok || name == "" || strings.ContainsRune(name, '/') {
			continue
		}
		fi := FileInfo{Path: p, IsDir: ent.Dir()}
		if fill != nil {
			fill(ent, &fi)
		}
		out = append(out, fi)
	}
	slices.SortFunc(out, func(a, b FileInfo) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// Mkdir makes dir and its missing parents.
func (t *Tree[E]) Mkdir(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mkdirAllLocked(dir)
}

// Create stores e at path, making its missing parents first. If path
// already names an entry, Create returns that entry and ErrExists.
func (t *Tree[E]) Create(path string, e E) (E, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.entries[path]; ok {
		return cur, ErrExists
	}
	var zero E
	if err := t.mkdirAllLocked(Parent(path)); err != nil {
		return zero, err
	}
	if err := t.putLocked(path, e); err != nil {
		return zero, err
	}
	return e, nil
}

// Rename moves the file at src to dst, replacing a file there and
// making dst's parents, and returns the moved entry and the one it
// displaced (the zero E if none). The caller frees what the displaced
// entry held, error or not: a journal failure after dst was written
// leaves src beside it. A directory at either path is refused with
// ErrIsDir; src == dst changes nothing.
func (t *Tree[E]) Rename(src, dst string) (moved, displaced E, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var zero E
	e, ok := t.entries[src]
	if !ok {
		return zero, zero, ErrNotExist
	}
	if e.Dir() {
		return zero, zero, ErrIsDir
	}
	d, ok := t.entries[dst]
	if ok && d.Dir() {
		return zero, zero, ErrIsDir
	}
	if src == dst {
		return e, zero, nil // a put then a delete of one path would drop it
	}
	if err := t.mkdirAllLocked(Parent(dst)); err != nil {
		return zero, zero, err
	}
	if err := t.putLocked(dst, e); err != nil {
		return zero, zero, err
	}
	return e, d, t.deleteLocked(src)
}

// Delete removes path's entry and returns it; the caller frees what it
// held. A directory must be empty, and "/" is refused with
// ErrInvalidPath.
func (t *Tree[E]) Delete(path string) (E, error) {
	var zero E
	if path == "/" {
		return zero, ErrInvalidPath
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[path]
	if !ok {
		return zero, ErrNotExist
	}
	if e.Dir() {
		prefix := path + "/"
		for p := range t.entries {
			if strings.HasPrefix(p, prefix) {
				return zero, ErrNotEmpty
			}
		}
	}
	if err := t.deleteLocked(path); err != nil {
		return zero, err
	}
	return e, nil
}
