package mapreduce

import (
	"bytes"
	"io"
	"slices"

	"blobseer/internal/wire"
)

// Emitter receives the records a map, combine or reduce function
// produces. A map or combine task's emitter copies each record into
// the record buffer of the key's partition; a reduce task's emitter
// writes it to the task's output as the line "key<TAB>value".
//
// It is a concrete type with a direct method on purpose: called
// through a func value or an interface, Emit's variadic slice and any
// scratch the caller renders a value into would escape to the heap,
// one object per record.
type Emitter struct {
	parts []recordBuffer // map, combine: one buffer per partition

	w    io.Writer // reduce: the output stream, one Write per record
	line []byte
	err  error // first failed Write; later records are dropped

	n uint64 // records taken
}

// NewEmitter returns an emitter that writes each record to w as the
// line "key<TAB>value<LF>", one Write call per record, as a reduce
// task's does.
func NewEmitter(w io.Writer) *Emitter { return &Emitter{w: w} }

// Emit takes one record, whose value is the concatenation of the given
// parts, and copies it before returning: the caller may overwrite key
// and every part at once.
func (e *Emitter) Emit(key []byte, value ...[]byte) {
	if e.w == nil {
		p := 0
		if len(e.parts) > 1 {
			p = partitionOf(key, len(e.parts))
		}
		e.parts[p].add(key, value)
		e.n++
		return
	}
	if e.err != nil {
		return
	}
	line := append(e.line[:0], key...)
	line = append(line, '\t')
	for _, v := range value {
		line = append(line, v...)
	}
	line = append(line, '\n')
	e.line = line
	if _, err := e.w.Write(line); err != nil {
		e.err = err
		return
	}
	e.n++
}

// collect readies a map or combine task's emitter: n empty partitions,
// whatever the buffers held before.
func (e *Emitter) collect(n int) {
	e.parts = e.parts[:cap(e.parts)]
	for len(e.parts) < n {
		e.parts = append(e.parts, recordBuffer{})
	}
	e.parts = e.parts[:n]
	for p := range e.parts {
		e.parts[p].reset()
	}
	e.n = 0
}

// recordBuffer holds the records of one map-output partition in
// serialized form, Hadoop's sort buffer: the key and value bytes of
// every record back to back in one arena, and an index entry per
// record. Sorting moves index entries, never bytes.
type recordBuffer struct {
	arena []byte
	index []recordRef
}

// recordRef locates one record: its key is arena[off:off+klen], its
// value the vlen bytes behind the key.
type recordRef struct {
	off        int
	klen, vlen uint32
}

func (b *recordBuffer) reset() {
	b.arena = b.arena[:0]
	b.index = b.index[:0]
}

// add copies one record, its value given in parts, into the buffer.
func (b *recordBuffer) add(key []byte, value [][]byte) {
	off := len(b.arena)
	b.arena = append(b.arena, key...)
	for _, v := range value {
		b.arena = append(b.arena, v...)
	}
	b.index = append(b.index, recordRef{
		off:  off,
		klen: uint32(len(key)),
		vlen: uint32(len(b.arena) - off - len(key)),
	})
}

func (b *recordBuffer) key(r recordRef) []byte {
	end := r.off + int(r.klen)
	return b.arena[r.off:end:end]
}

func (b *recordBuffer) value(r recordRef) []byte {
	v := r.off + int(r.klen)
	end := v + int(r.vlen)
	return b.arena[v:end:end]
}

// sort orders the records by key, then value, comparing raw bytes (a
// stable output for tests; equal records are indistinguishable).
func (b *recordBuffer) sort() {
	slices.SortFunc(b.index, func(x, y recordRef) int {
		if c := bytes.Compare(b.key(x), b.key(y)); c != 0 {
			return c
		}
		return bytes.Compare(b.value(x), b.value(y))
	})
}

// encodedSize is the length of the buffer's encoding (see encode).
func (b *recordBuffer) encodedSize() int {
	size := wire.UvarintLen(uint64(len(b.index))) + len(b.arena)
	for _, r := range b.index {
		size += wire.UvarintLen(uint64(r.klen)) + wire.UvarintLen(uint64(r.vlen))
	}
	return size
}

// encode appends the buffer's records, in index order, to dst as one
// map output partition: a uvarint record count, then every record as a
// uvarint-length-prefixed key and a uvarint-length-prefixed value. A
// dst with encodedSize bytes of room is filled without growing; a nil
// dst gets a slice of its own, sized exactly.
func (b *recordBuffer) encode(dst []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, b.encodedSize())
	}
	out := wire.AppendUvarint(dst, uint64(len(b.index)))
	for _, r := range b.index {
		out = wire.AppendBytes(out, b.key(r))
		out = wire.AppendBytes(out, b.value(r))
	}
	return out
}

// run is one fetched map output partition read in place: a cursor
// into the encoded segment and views of the record it stands on.
type run struct {
	rest     wire.Reader // the segment behind the head record
	left     int         // records from the head on; 0 = exhausted
	key, val []byte
}

// openRun checks a whole segment — the count is there, every record it
// promises lies inside the segment — and positions a run on its first
// record. Validating up front, and allocating nothing per record for
// it, is what lets a reduce attempt fail on a damaged segment before it
// has appended any output. Bytes behind the last record are ignored.
func openRun(seg []byte) (run, error) {
	r := run{rest: *wire.NewReader(seg)}
	count := r.rest.Uvarint()
	check := r.rest // a copy of the cursor walks the records first
	for i := uint64(0); i < count && check.Err() == nil; i++ {
		check.Bytes()
		check.Bytes()
	}
	if err := check.Err(); err != nil {
		return run{}, err
	}
	r.left = int(count) + 1
	r.advance()
	return r, nil
}

// advance moves the head to the next record of a segment openRun has
// checked.
func (r *run) advance() {
	r.left--
	if r.left == 0 {
		r.key, r.val = nil, nil
		return
	}
	//lint:framealias a segment is the reducer's own bytes (a buffer of its tracker's free list, or ShuffleResp's BytesCopy), never a recycled rpc frame
	r.key = r.rest.Bytes()
	//lint:framealias as the key: the segment outlives the run
	r.val = r.rest.Bytes()
}
