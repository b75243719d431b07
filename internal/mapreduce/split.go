package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"

	"blobseer/internal/dfs"
)

// Split is one map task's input: a byte range of a file. Hosts lists
// machines storing the range's first block, for locality scheduling.
type Split struct {
	Path   string
	Offset uint64
	Length uint64
	Hosts  []string
	// Ver is the input file's snapshot version pinned at job submit
	// (0 = unpinned: read the latest version, the pre-snapshot
	// behaviour). Map tasks open the split at exactly this version, so
	// every map of a job reads one immutable snapshot even while
	// concurrent appenders keep growing the file.
	Ver uint64
}

// pinnedInput is one input file's snapshot, pinned at job submit. The
// open reader is held for the whole job: its garbage-collection pin is
// the job's lease on the snapshot, so no map task can find its input
// version collected.
type pinnedInput struct {
	ver  uint64
	size uint64
	r    dfs.VersionedReader
}

// pinInputs pins each input file's latest published snapshot when the
// backend supports versioned access: the job's input set becomes
// immutable at submit — the paper's flagship read/append overlap, made
// correct by construction. Backends without the capability (HDFS) run
// unpinned, exactly as before. The returned release func closes every
// held reader (dropping the pins) and must be called when the job
// finishes.
func pinInputs(ctx context.Context, fs dfs.FileSystem, inputs []string) (map[string]pinnedInput, func(), error) {
	vfs, ok := dfs.AsVersioned(fs)
	if !ok {
		return nil, func() {}, nil
	}
	pins := make(map[string]pinnedInput, len(inputs))
	closeAll := func() {
		for _, p := range pins {
			p.r.Close()
		}
	}
	for _, path := range inputs {
		// OpenVersion(0) pins whatever is latest atomically — a
		// Stat-then-open pair would race retention collecting the
		// stat'd version while appenders publish newer ones — and the
		// reader reports which version the pin landed on.
		r, err := vfs.OpenVersion(ctx, path, 0)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("mapreduce: pin input %s: %w", path, err)
		}
		if r.Version() == 0 {
			// Empty file: nothing to pin.
			r.Close()
			continue
		}
		pins[path] = pinnedInput{ver: r.Version(), size: r.Size(), r: r}
	}
	return pins, closeAll, nil
}

// computeSplits cuts the input files into splits of splitSize bytes
// ("the input data is also split into chunks of equal size", §2.2) and
// annotates each split with its block's hosts. Inputs present in pins
// are cut at their pinned snapshot — size and block locations both
// resolved at that version — so a job submitted mid-append covers
// exactly the bytes that existed at submit.
func computeSplits(ctx context.Context, fs dfs.FileSystem, inputs []string, splitSize uint64, pins map[string]pinnedInput) ([]Split, error) {
	if splitSize == 0 {
		splitSize = fs.BlockSize()
	}
	var out []Split
	for _, path := range inputs {
		var size, ver uint64
		var locs []dfs.BlockLoc
		var err error
		if pin, ok := pins[path]; ok {
			size, ver = pin.size, pin.ver
			vfs, _ := dfs.AsVersioned(fs)
			locs, err = vfs.BlockLocationsAt(ctx, path, ver, 0, size)
		} else {
			var fi dfs.FileInfo
			fi, err = fs.Stat(ctx, path)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: stat input %s: %w", path, err)
			}
			if fi.IsDir {
				return nil, fmt.Errorf("mapreduce: input %s: %w", path, dfs.ErrIsDir)
			}
			size = fi.Size
			locs, err = fs.BlockLocations(ctx, path, 0, size)
		}
		if err != nil {
			return nil, fmt.Errorf("mapreduce: locations of %s: %w", path, err)
		}
		hostsAt := func(off uint64) []string {
			for _, l := range locs {
				if off >= l.Offset && off < l.Offset+l.Length {
					return l.Hosts
				}
			}
			return nil
		}
		for off := uint64(0); off < size; off += splitSize {
			length := splitSize
			if off+length > size {
				length = size - off
			}
			out = append(out, Split{
				Path:   path,
				Offset: off,
				Length: length,
				Hosts:  hostsAt(off),
				Ver:    ver,
			})
		}
	}
	return out, nil
}

// lineReader yields the records of one split using Hadoop's text-split
// convention: a split skips the (possibly partial) line at its start
// unless it begins at offset 0, and reads past its end until the line
// it started is complete.
type lineReader struct {
	f    dfs.FileReader
	path string
	pos  uint64 // absolute offset of buf[0]
	buf  []byte // the one buffer the file is read into; lines are views of it
	used int    // bytes of buf already consumed
	end  uint64 // split end; lines starting at >= end belong elsewhere
	size uint64
	eof  bool
}

// newLineReader positions a reader at the first record of the split.
// It reads into buf's storage, growing it when a line demands; the
// caller that recycles buffers takes lr.buf back when it is done.
func newLineReader(f dfs.FileReader, split Split, buf []byte) (*lineReader, error) {
	lr := &lineReader{
		f:    f,
		path: split.Path,
		pos:  split.Offset,
		buf:  buf[:0],
		end:  split.Offset + split.Length,
		size: f.Size(),
	}
	if split.Offset > 0 {
		// Skip the line in progress; it belongs to the previous split.
		if err := lr.skipPartialLine(); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// lineBuf is how much of the file one fill asks for.
const lineBuf = 64 << 10

// fill moves the unconsumed bytes to the front of the buffer and reads
// the next lineBuf bytes of the file in behind them, which overwrites
// every line handed out so far. It sets lr.eof at the end of the file
// and returns io.EOF only when nothing remains buffered.
func (lr *lineReader) fill() error {
	if lr.used > 0 {
		lr.pos += uint64(lr.used)
		lr.buf = lr.buf[:copy(lr.buf, lr.buf[lr.used:])]
		lr.used = 0
	}
	if lr.eof {
		if len(lr.buf) == 0 {
			return io.EOF
		}
		return nil
	}
	have := len(lr.buf)
	lr.buf = slices.Grow(lr.buf, lineBuf)
	n, err := lr.f.ReadAt(lr.buf[have:have+lineBuf], int64(lr.pos+uint64(have)))
	lr.buf = lr.buf[:have+n]
	if err == io.EOF {
		lr.eof = true
		if len(lr.buf) == 0 {
			return io.EOF
		}
		return nil
	}
	return err
}

func (lr *lineReader) skipPartialLine() error {
	for {
		if i := bytes.IndexByte(lr.buf[lr.used:], '\n'); i >= 0 {
			lr.used += i + 1
			return nil
		}
		// Consume the whole buffer and read on.
		lr.used = len(lr.buf)
		if err := lr.fill(); err != nil {
			if err == io.EOF {
				return nil // split contains no complete line start
			}
			return err
		}
	}
}

// next returns the next record (absolute offset, line without the
// trailing newline). The line is a view of the reader's buffer, valid
// until the next call. io.EOF ends the split.
//
// Boundary convention (Hadoop's LineRecordReader): a split also reads
// the line starting exactly AT its end offset, because the following
// split unconditionally skips its first line — otherwise a line whose
// first byte is a split boundary would be lost.
func (lr *lineReader) next() (uint64, []byte, error) {
	lineStart := lr.pos + uint64(lr.used)
	if lineStart > lr.end || lineStart >= lr.size {
		return 0, nil, io.EOF
	}
	for {
		if i := bytes.IndexByte(lr.buf[lr.used:], '\n'); i >= 0 {
			end := lr.used + i
			line := lr.buf[lr.used:end:end]
			lr.used = end + 1
			return lineStart, line, nil
		}
		if lr.eof {
			// Final line without trailing newline.
			if lr.used < len(lr.buf) {
				line := lr.buf[lr.used:len(lr.buf):len(lr.buf)]
				lr.used = len(lr.buf)
				return lineStart, line, nil
			}
			return 0, nil, io.EOF
		}
		if err := lr.fill(); err != nil {
			return 0, nil, err
		}
	}
}
