// Package wire implements the compact binary encoding used by every RPC
// message in the system. It is a hand-rolled, reflection-free codec:
// unsigned varints for integers, length-prefixed byte strings, and a
// one-byte presence marker for optional fields. Messages implement
// Marshaler/Unmarshaler and are framed by the rpc package.
//
// The format is deliberately simple so that encoding cost never shows up
// in the experiments: the data path (pages) is carried as raw byte
// slices with a single length prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Common decoding errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrOverflow    = errors.New("wire: varint overflows 64 bits")
	ErrTooLarge    = errors.New("wire: length prefix exceeds limit")
)

// MaxBytesLen bounds any single length-prefixed field. It protects
// decoders against corrupt frames; pages are far below this.
const MaxBytesLen = 1 << 30

// Marshaler is implemented by every wire message.
type Marshaler interface {
	// AppendTo appends the encoded form of the message to b and
	// returns the extended slice.
	AppendTo(b []byte) []byte
}

// Unmarshaler is implemented by every wire message.
type Unmarshaler interface {
	// DecodeFrom decodes the message from a Reader.
	DecodeFrom(r *Reader) error
}

// Message combines both directions; every RPC payload satisfies it.
type Message interface {
	Marshaler
	Unmarshaler
}

// Sizer is implemented by the messages that carry a page, so whoever
// marshals one can take a buffer of the right size up front instead of
// growing it through several page-sized reallocations.
type Sizer interface {
	// EncodedSize returns an upper bound on len(AppendTo(nil)).
	EncodedSize() int
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Marshaler) []byte {
	if s, ok := m.(Sizer); ok {
		return m.AppendTo(make([]byte, 0, s.EncodedSize()))
	}
	return m.AppendTo(nil)
}

// Unmarshal decodes m from buf, requiring the whole buffer be consumed.
func Unmarshal(buf []byte, m Unmarshaler) error {
	r := NewReader(buf)
	if err := m.DecodeFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", r.Len())
	}
	return nil
}

//
// Append-style encoders.
//

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zigzag form.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendUint32 appends v as a fixed 4-byte little-endian value.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v as a fixed 8-byte little-endian value.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a uvarint length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends a uvarint length prefix followed by s.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStringSlice appends a count followed by each string.
func AppendStringSlice(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendBytesSlice appends a count followed by each byte string.
func AppendBytesSlice(b []byte, ps [][]byte) []byte {
	b = AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendBytes(b, p)
	}
	return b
}

// AppendUint64Slice appends a count followed by each value as uvarint.
func AppendUint64Slice(b []byte, vs []uint64) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendUvarint(b, v)
	}
	return b
}

// AppendError encodes an error as a presence byte plus message text.
// A nil error is a single zero byte.
func AppendError(b []byte, err error) []byte {
	if err == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return AppendString(b, err.Error())
}

//
// Reader: sequential decoder over a byte slice.
//

// Reader decodes wire-encoded fields from a buffer. Methods record the
// first error and become no-ops afterwards, so call sites can decode a
// whole struct and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrShortBuffer)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Varint decodes a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrShortBuffer)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Uint32 decodes a fixed 4-byte value.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 4 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 decodes a fixed 8-byte value.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bool decodes a single byte as a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Len() < 1 {
		r.fail(ErrShortBuffer)
		return false
	}
	v := r.buf[r.off]
	r.off++
	return v != 0
}

// Bytes decodes a length-prefixed byte string. The returned slice
// aliases the Reader's buffer and is valid only as long as that buffer
// is: an rpc request frame is recycled once the handler's response has
// been marshalled, so a handler (or a DecodeFrom it calls) that keeps
// the bytes must use BytesCopy. The framealias analyzer flags a Bytes
// result that is stored in a field or returned.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	if uint64(r.Len()) < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	p := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return p
}

// BytesCopy decodes a length-prefixed byte string into fresh storage.
func (r *Reader) BytesCopy() []byte {
	p := r.Bytes()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Bytes())
}

// sliceExtent reads the count of a count-prefixed sequence of
// length-prefixed fields and checks that every field is present. It
// leaves the Reader at the first field and returns the count and the
// offset just past the last one, so a decoder can copy the whole
// region once before it allocates anything sized by the count.
func (r *Reader) sliceExtent() (n, end int) {
	cnt := r.Uvarint()
	if r.err != nil {
		return 0, 0
	}
	if cnt > MaxBytesLen {
		r.fail(ErrTooLarge)
		return 0, 0
	}
	if cnt > uint64(r.Len()) { // every field takes at least its length byte
		r.fail(ErrShortBuffer)
		return 0, 0
	}
	start := r.off
	for i := uint64(0); i < cnt; i++ {
		r.Bytes()
	}
	if r.err != nil {
		return 0, 0
	}
	end, r.off = r.off, start
	return int(cnt), end
}

// StringSlice decodes a count-prefixed string slice. The strings are
// substrings of one copy of the encoded region — two allocations
// however many strings — so whoever keeps one of them keeps that copy.
func (r *Reader) StringSlice() []string {
	n, end := r.sliceExtent()
	if r.err != nil {
		return nil
	}
	start := r.off
	slab := string(r.buf[start:end])
	ss := make([]string, n)
	for i := range ss {
		p := r.Bytes()
		e := r.off - start
		ss[i] = slab[e-len(p) : e]
	}
	return ss
}

// BytesSliceCopy decodes what AppendBytesSlice encoded into fresh
// storage: the elements are sub-slices of one copy of the encoded
// region, with the same lifetime rule as StringSlice.
func (r *Reader) BytesSliceCopy() [][]byte {
	n, end := r.sliceExtent()
	if r.err != nil || n == 0 {
		return nil
	}
	start := r.off
	slab := make([]byte, end-start)
	copy(slab, r.buf[start:end])
	ps := make([][]byte, n)
	for i := range ps {
		p := r.Bytes()
		e := r.off - start
		ps[i] = slab[e-len(p) : e : e]
	}
	return ps
}

// Uint64Slice decodes a count-prefixed uvarint slice.
func (r *Reader) Uint64Slice() []uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	vs := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		vs = append(vs, r.Uvarint())
		if r.err != nil {
			return nil
		}
	}
	return vs
}

// Error decodes an error encoded by AppendError. A decoded non-nil
// error is returned as a RemoteError.
func (r *Reader) Error() error {
	if !r.Bool() {
		return nil
	}
	msg := r.String()
	if r.err != nil {
		return nil
	}
	return RemoteError(msg)
}

// CountPair is a generic two-counter response message used by several
// services' stats endpoints.
type CountPair struct{ A, B uint64 }

// AppendTo implements Marshaler.
func (m *CountPair) AppendTo(b []byte) []byte {
	b = AppendUvarint(b, m.A)
	return AppendUvarint(b, m.B)
}

// DecodeFrom implements Unmarshaler.
func (m *CountPair) DecodeFrom(r *Reader) error {
	m.A = r.Uvarint()
	m.B = r.Uvarint()
	return r.Err()
}

// RemoteError is an error message that crossed the wire. The concrete
// error type is lost in transit; services that need programmatic
// dispatch compare against sentinel message prefixes.
type RemoteError string

// Error implements the error interface.
func (e RemoteError) Error() string { return string(e) }

// Is reports message equality so errors.Is works across the wire for
// sentinel errors re-created on the caller side.
func (e RemoteError) Is(target error) bool {
	return target != nil && target.Error() == string(e)
}
