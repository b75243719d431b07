package kvlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put("page:1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("page:2", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("page:1")
	if err != nil || string(v) != "alpha" {
		t.Fatalf("Get page:1 = %q, %v", v, err)
	}
	if !s.Has("page:2") || s.Has("page:3") {
		t.Error("Has wrong")
	}
	if err := s.Delete("page:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("page:1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	// Deleting a missing key is a no-op.
	if err := s.Delete("nope"); err != nil {
		t.Fatal(err)
	}
}

func TestOverwrite(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 10; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Get("k")
	if err != nil || string(v) != "v9" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	total, live := s.Size()
	if live >= total {
		t.Errorf("overwrites should create garbage: total=%d live=%d", total, live)
	}
}

func TestEmptyValue(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("empty")
	if err != nil || len(v) != 0 {
		t.Fatalf("Get empty = %q, %v", v, err)
	}
}

func TestReopenRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i%30)
		v := fmt.Sprintf("value-%d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := s.Delete("key-5"); err != nil {
		t.Fatal(err)
	}
	delete(want, "key-5")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("recovered %d keys, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, err := s2.Get(k)
		if err != nil || string(got) != v {
			t.Fatalf("recovered Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
}

// TestTruncatedTailRecovery simulates a crash mid-append: for several
// truncation points, the store must reopen cleanly and contain exactly
// a prefix of the committed operations.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "full.log")
	s, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Record the store state after each op so any prefix is checkable.
	type op struct{ k, v string }
	var ops []op
	for i := 0; i < 40; i++ {
		o := op{k: fmt.Sprintf("k%d", i%7), v: fmt.Sprintf("v%d", i)}
		if err := s.Put(o.k, []byte(o.v)); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, o)
	}
	s.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut += 13 {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		// The recovered state must equal replaying some prefix of ops.
		got := map[string]string{}
		for _, k := range rs.Keys() {
			v, err := rs.Get(k)
			if err != nil {
				t.Fatalf("cut=%d: get %q: %v", cut, k, err)
			}
			got[k] = string(v)
		}
		matched := false
		ref := map[string]string{}
		if mapsEqual(got, ref) {
			matched = true
		}
		for _, o := range ops {
			ref[o.k] = o.v
			if mapsEqual(got, ref) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("cut=%d: recovered state %v is not a prefix state", cut, got)
		}
		// The recovered store must accept new writes.
		if err := rs.Put("after-crash", []byte("ok")); err != nil {
			t.Fatalf("cut=%d: put after recovery: %v", cut, err)
		}
		rs.Close()
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte early in the file: replay must stop there, keeping
	// only records before the corruption.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() >= 10 {
		t.Errorf("corrupt store recovered %d keys, want < 10", s2.Len())
	}
}

func TestCompact(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%10), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Delete(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, live := s.Size()
	dead := before - live
	if did, err := s.CompactIfDead(dead + 1); did || err != nil {
		t.Fatalf("CompactIfDead(%d) with %d dead bytes = %v, %v; want no compaction", dead+1, dead, did, err)
	}
	if total, _ := s.Size(); total != before {
		t.Errorf("log size %d after a declined compaction, want %d", total, before)
	}
	if did, err := s.CompactIfDead(dead); !did || err != nil {
		t.Fatalf("CompactIfDead(%d) with %d dead bytes = %v, %v; want a compaction", dead, dead, did, err)
	}
	after, live := s.Size()
	if after >= before {
		t.Errorf("compact did not shrink: before=%d after=%d", before, after)
	}
	if after < live {
		t.Errorf("log smaller than live data: total=%d live=%d", after, live)
	}
	if s.Len() != 5 {
		t.Errorf("Len after compact = %d, want 5", s.Len())
	}
	for i := 5; i < 10; i++ {
		v, err := s.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(190 + i)}, 64)
		if !bytes.Equal(v, want) {
			t.Errorf("k%d after compact = %v, want %v", i, v[0], want[0])
		}
	}
	// Store still writable and reopenable after compact.
	if err := s.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.Get("post"); err != nil || string(v) != "compact" {
		t.Fatalf("post-compact reopen Get = %q, %v", v, err)
	}
}

// TestRandomOpsAgainstReference drives the store with a random workload
// and compares against a plain map after every step and after reopen.
func TestRandomOpsAgainstReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string][]byte{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(50))
		switch rng.Intn(10) {
		case 0:
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		case 1:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			v := make([]byte, rng.Intn(100))
			rng.Read(v)
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
	}
	check := func(s *Store) {
		t.Helper()
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
		for k, v := range ref {
			got, err := s.Get(k)
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("Get(%q) = %v, %v", k, got, err)
			}
		}
	}
	check(s)
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, err := s.Get(k)
				if err != nil || string(v) != k {
					t.Errorf("get %q = %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

func TestSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := openTemp(t)
	s.Close()
	if err := s.Put("k", nil); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if _, err := s.Get("k"); err == nil {
		t.Error("Get on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func BenchmarkPut1K(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	v := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%1000), v); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSnapshotScanConsistentPrefix(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k03"); err != nil {
		t.Fatal(err)
	}

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	// Everything after the pin must be invisible: overwrites, new keys,
	// deletes, even a full compaction that rewrites the log file.
	if err := s.Put("k00", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("new", []byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k05"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	if err := sn.Scan(func(k string, v []byte) error {
		got[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("snapshot keys = %d, want 9 (%v)", len(got), got)
	}
	if got["k00"] != "v0" {
		t.Errorf("k00 = %q, want pre-overwrite value", got["k00"])
	}
	if _, ok := got["k03"]; ok {
		t.Error("k03 visible despite pre-pin delete")
	}
	if got["k05"] != "v5" {
		t.Errorf("k05 = %q, want pre-delete value", got["k05"])
	}
	if _, ok := got["new"]; ok {
		t.Error("post-pin key leaked into the snapshot")
	}
	if n, err := sn.Len(); err != nil || n != 9 {
		t.Errorf("snapshot Len = %d, %v", n, err)
	}
}

func TestScanConcurrentWithAppends(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	// The writer is bounded, a fixed batch of puts per scan round: an
	// unthrottled one grows the log faster than twenty scans can read
	// it, and the test then measures the disk. It still overlaps every
	// scan — the scan's start releases the round's batch.
	const rounds, putsPerRound = 20, 200
	round := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for range round {
			for n := 0; n < putsPerRound; n, i = n+1, i+1 {
				if err := s.Put(fmt.Sprintf("k%03d", i%50), []byte("mutated")); err != nil {
					t.Error(err)
				}
				if err := s.Put(fmt.Sprintf("extra%04d", i), []byte("tail")); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	// Each scan must see one consistent prefix: every base key exactly
	// once, values either all-base or individually overwritten BEFORE
	// the pin — never a torn record and never a key appearing twice.
	for r := 0; r < rounds; r++ {
		round <- struct{}{}
		seen := map[string]int{}
		if err := s.Scan(func(k string, v []byte) error {
			seen[k]++
			if string(v) != "base" && string(v) != "mutated" && string(v) != "tail" {
				return fmt.Errorf("torn value %q for %q", v, k)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%03d", i)
			if seen[k] != 1 {
				t.Fatalf("round %d: key %s seen %d times", r, k, seen[k])
			}
		}
	}
	close(round)
	wg.Wait()
}
