package kvlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jmodel is the journal a crash must leave behind: the retained run,
// first..first+len(recs)-1, and the last seq used.
type jmodel struct {
	first uint64
	recs  []string
	last  uint64
}

// crashPoint is the model once the log holds the record ending at end.
type crashPoint struct {
	end   int64
	model jmodel
}

// logGen is one file the log lived in between compactions: its final
// bytes, where the compacted image it started from ends, the model at
// that offset, and the model after each record written to it since.
type logGen struct {
	data   []byte
	base   int64
	start  jmodel
	points []crashPoint
}

// modelAt returns the model once the log is cut at offset cut: the
// state after the last record wholly below it.
func (g *logGen) modelAt(cut int64) jmodel {
	m := g.start
	for _, p := range g.points {
		if p.end > cut {
			break
		}
		m = p.model
	}
	return m
}

// recordEnds returns the end offset of every whole record in data from
// offset from on.
func recordEnds(data []byte, from int64) []int64 {
	var ends []int64
	for off := from; off+headerLen <= int64(len(data)); {
		off += headerLen + int64(binary.LittleEndian.Uint32(data[off+5:off+9]))
		if off > int64(len(data)) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// crashCuts yields every offset in [from, to], or a seeded eighth of
// them under -short.
func crashCuts(from, to int64, rng *rand.Rand, each func(cut int64)) {
	for cut := from; cut <= to; cut++ {
		if testing.Short() && rng.Intn(8) != 0 {
			continue
		}
		each(cut)
	}
}

// TestJournalCrashPoints writes a journal of 48 records with four
// checkpoint-style trims (each beside puts of other keys) and a
// compaction, then cuts a copy of the log at every byte offset of its
// life. Each reopened copy must replay exactly the model after the last
// record wholly below the cut — no error, no partial record, no gap —
// and its next Append must get the model's last seq + 1. A crash inside
// Compact is the old log beside every prefix of <path>.compact; a
// compacted image is synced before it is renamed in, so it is never
// cut itself.
func TestJournalCrashPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := s.Journal("j/")
	m := jmodel{first: 1}
	var gens []*logGen
	cur := &logGen{start: m}
	// wrote checks the records the last call appended against the
	// models after each of them, in order.
	wrote := func(models ...jmodel) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		from := cur.base
		if n := len(cur.points); n > 0 {
			from = cur.points[n-1].end
		}
		ends := recordEnds(data, from)
		if len(ends) != len(models) {
			t.Fatalf("call wrote %d records, want %d", len(ends), len(models))
		}
		for i, end := range ends {
			cur.points = append(cur.points, crashPoint{end: end, model: models[i]})
		}
		cur.data = data
	}
	for seq := uint64(1); seq <= 48; seq++ {
		rec := fmt.Sprintf("rec-%d-%s", seq, strings.Repeat("x", int(seq%5)))
		got, err := j.Append(func(s uint64) ([]byte, error) {
			if s != seq {
				return nil, fmt.Errorf("encode got seq %d, want %d", s, seq)
			}
			return []byte(rec), nil
		})
		if err != nil || got != seq {
			t.Fatalf("Append = %d, %v; want %d", got, err, seq)
		}
		m.recs = append(m.recs[:len(m.recs):len(m.recs)], rec)
		m.last = seq
		wrote(m)
		if seq%12 != 0 {
			continue
		}
		// A checkpoint: state under other keys, then a trim to the
		// newest four records, oldest first.
		for _, k := range []string{"s/a", "s/b"} {
			if err := s.Put(k, []byte(fmt.Sprintf("%s@%d", k, seq))); err != nil {
				t.Fatal(err)
			}
			wrote(m)
		}
		var trimmed []jmodel
		for m.first < seq-3 {
			m.first++
			m.recs = m.recs[1:]
			trimmed = append(trimmed, m)
		}
		if err := j.TrimThrough(seq - 4); err != nil {
			t.Fatal(err)
		}
		wrote(trimmed...)
		if seq == 24 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			gens = append(gens, cur)
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cur = &logGen{data: image, base: int64(len(image)), start: m}
		}
	}
	gens = append(gens, cur)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.log")
	check := func(cut int64, want jmodel) {
		t.Helper()
		rs, err := Open(cutPath, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		defer rs.Close()
		rj := rs.Journal("j/")
		var got []string
		next := want.first
		if err := rj.Replay(func(seq uint64, rec []byte) error {
			if seq != next {
				return fmt.Errorf("replayed seq %d, want %d", seq, next)
			}
			next++
			got = append(got, string(rec))
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		if strings.Join(got, ",") != strings.Join(want.recs, ",") {
			t.Fatalf("cut %d: replayed %v, want %v", cut, got, want.recs)
		}
		if rj.Len() != len(want.recs) || rj.Last() != want.last {
			t.Fatalf("cut %d: Len %d Last %d, want %d %d", cut, rj.Len(), rj.Last(), len(want.recs), want.last)
		}
		if seq, err := rj.Append(func(uint64) ([]byte, error) { return []byte("next"), nil }); err != nil || seq != want.last+1 {
			t.Fatalf("cut %d: next Append = %d, %v; want %d", cut, seq, err, want.last+1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range gens {
		crashCuts(g.base, int64(len(g.data)), rng, func(cut int64) {
			if err := os.WriteFile(cutPath, g.data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			check(cut, g.modelAt(cut))
		})
	}
	// A crash inside Compact: the whole old log, and beside it every
	// prefix of the rewrite. The old log wins, and a later Compact
	// replaces the leftover.
	old, image := gens[0], gens[1]
	crashCuts(0, image.base, rng, func(cut int64) {
		if err := os.WriteFile(cutPath, old.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cutPath+".compact", image.data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check(cut, image.start)
	})
	if err := os.WriteFile(cutPath, old.data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Open(cutPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Compact(); err != nil {
		t.Fatalf("compact over a leftover rewrite: %v", err)
	}
	if n := rs.Journal("j/").Len(); n != len(image.start.recs) {
		t.Fatalf("journal after compacting over a leftover rewrite holds %d records, want %d", n, len(image.start.recs))
	}
}

// TestJournalFailedAppendUsesNoSeq: an encode or put that fails stores
// nothing and leaves the next Append the same seq.
func TestJournalFailedAppendUsesNoSeq(t *testing.T) {
	s, _ := openTemp(t)
	j := s.Journal("e/")
	if _, err := j.Append(func(uint64) ([]byte, error) { return []byte("one"), nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := j.Append(func(uint64) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed encode returned %v", err)
	}
	if seq, err := j.Append(func(uint64) ([]byte, error) { return []byte("two"), nil }); err != nil || seq != 2 {
		t.Fatalf("Append after a failed encode = %d, %v; want 2", seq, err)
	}
	if j.Len() != 2 || s.Len() != 2 {
		t.Fatalf("journal Len %d, store Len %d; want 2 and 2", j.Len(), s.Len())
	}
	s.Close()
	if _, err := j.Append(func(uint64) ([]byte, error) { return []byte("closed"), nil }); err == nil {
		t.Fatal("Append on a closed store succeeded")
	}
	if j.Last() != 2 {
		t.Fatalf("Last after a failed put = %d, want 2", j.Last())
	}
}

// TestJournalSkipThrough: a journal trimmed empty keeps no seq in its
// keys, so a reopened one starts again at 1 until its owner restores
// the covered seq; SkipThrough never moves a journal that holds records.
func TestJournalSkipThrough(t *testing.T) {
	s, path := openTemp(t)
	j := s.Journal("j/")
	for i := 0; i < 3; i++ {
		if _, err := j.Append(func(uint64) ([]byte, error) { return []byte("r"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	j.SkipThrough(9)
	if j.Last() != 3 {
		t.Fatalf("SkipThrough moved a journal holding records: Last = %d", j.Last())
	}
	if err := j.TrimThrough(3); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2 := s2.Journal("j/")
	if j2.Len() != 0 || j2.Last() != 0 {
		t.Fatalf("reopened empty journal: Len %d Last %d", j2.Len(), j2.Last())
	}
	j2.SkipThrough(3)
	if seq, err := j2.Append(func(uint64) ([]byte, error) { return []byte("r"), nil }); err != nil || seq != 4 {
		t.Fatalf("Append after SkipThrough(3) = %d, %v; want 4", seq, err)
	}
}
