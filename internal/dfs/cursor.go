package dfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"

	"blobseer/internal/cache"
)

// BlockSource is a file as a sequence of whole blocks: what a
// BlockCursor reads from.
type BlockSource interface {
	// Block returns the whole block holding byte pos and the file
	// offset the block starts at. The caller owns the page and
	// releases it; a failed call returns none.
	Block(ctx context.Context, pos uint64) (page cache.Page, start uint64, err error)
	// Size returns the size of the file the reader sees.
	Size() uint64
}

// BlockCursor is the read side both backends share: a small read
// fetches the whole block that holds it (HDFS "prefetches the entire
// chunk", §2.2; the BSFS client "prefetches a whole block when the
// requested data is not already cached", §3.2), and reads copy out of
// that block until the position leaves it. The cursor holds one block
// at a time. Like the readers built on it, it is not safe for
// concurrent use.
type BlockCursor struct {
	pos    uint64
	start  uint64
	block  cache.Page
	closed bool
}

var errReadClosed = fmt.Errorf("dfs: read from closed file: %w", iofs.ErrClosed)

// Read implements io.Reader's contract over src: it copies from the
// block holding the position, fetching that block first when the
// cursor does not hold it.
func (c *BlockCursor) Read(ctx context.Context, src BlockSource, p []byte) (int, error) {
	if c.closed {
		return 0, errReadClosed
	}
	if c.pos >= src.Size() {
		return 0, io.EOF
	}
	b, err := c.at(ctx, src, c.pos)
	if err != nil {
		return 0, err
	}
	n := copy(p, b)
	c.pos += uint64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt's contract over src through the same
// held block as Read, so sequential sub-block ReadAt patterns (the
// Map/Reduce record readers) fetch every block once. It does not move
// the position.
func (c *BlockCursor) ReadAt(ctx context.Context, src BlockSource, p []byte, off int64) (int, error) {
	if c.closed {
		return 0, errReadClosed
	}
	if off < 0 {
		return 0, errors.New("dfs: negative offset")
	}
	pos, size := uint64(off), src.Size()
	if pos >= size {
		return 0, io.EOF
	}
	want := min(uint64(len(p)), size-pos)
	var done uint64
	for done < want {
		b, err := c.at(ctx, src, pos+done)
		if err != nil {
			return int(done), err
		}
		done += uint64(copy(p[done:want], b))
	}
	if want < uint64(len(p)) {
		return int(done), io.EOF
	}
	return int(done), nil
}

// at returns the held block's bytes from pos on, first swapping the
// held block for the one holding pos when it does not.
func (c *BlockCursor) at(ctx context.Context, src BlockSource, pos uint64) ([]byte, error) {
	if !c.holds(pos) {
		c.Drop()
		var err error
		if c.block, c.start, err = src.Block(ctx, pos); err != nil {
			return nil, err
		}
		if !c.holds(pos) {
			return nil, fmt.Errorf("dfs: block at %d ends before byte %d: %w", c.start, pos, io.ErrUnexpectedEOF)
		}
	}
	return c.block.Data[pos-c.start:], nil
}

func (c *BlockCursor) holds(pos uint64) bool {
	return pos >= c.start && pos-c.start < uint64(len(c.block.Data))
}

// Drop releases the held block; the next read fetches its block anew.
func (c *BlockCursor) Drop() {
	c.block.Release()
	c.block = cache.Page{}
}

// Close drops the held block and reports whether the cursor was still
// open. Every later read fails with an error that wraps
// io/fs.ErrClosed.
func (c *BlockCursor) Close() bool {
	if c.closed {
		return false
	}
	c.closed = true
	c.Drop()
	return true
}
