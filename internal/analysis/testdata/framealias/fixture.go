// Package fixture exercises the framealias analyzer.
package fixture

import "blobseer/internal/wire"

type msg struct {
	data   []byte
	values [][]byte
	name   string
}

var global []byte

func (m *msg) storesField(r *wire.Reader) error {
	m.data = r.Bytes() // want "stored beyond the decode"
	return r.Err()
}

func (m *msg) storesViaLocal(r *wire.Reader) error {
	p := r.Bytes()
	m.data = p[:1] // want "stored beyond the decode"
	return r.Err()
}

func (m *msg) appendsElement(r *wire.Reader) {
	m.values = append(m.values, r.Bytes()) // want "stored beyond the decode"
}

func storesGlobal(r *wire.Reader) {
	global = r.Bytes() // want "stored beyond the decode"
}

func returned(r *wire.Reader) []byte {
	return r.Bytes() // want "result returned"
}

func literal(r *wire.Reader) *msg {
	return &msg{data: r.Bytes()} // want "stored in a composite literal"
}

// handler builds an rpc handler as a closure, the way services
// register theirs: the closure is a scope of its own.
func handler(m *msg) func(r *wire.Reader) (wire.Marshaler, error) {
	return func(r *wire.Reader) (wire.Marshaler, error) {
		m.data = r.Bytes() // want "stored beyond the decode"
		return nil, nil
	}
}

// Copies are what decoders are supposed to make.
func (m *msg) copies(r *wire.Reader) error {
	m.data = r.BytesCopy()
	m.name = string(r.Bytes())
	m.data = append(m.data[:0], r.Bytes()...)
	return r.Err()
}

// usedInPlace consumes the alias before returning; nothing outlives
// the decode.
func usedInPlace(r *wire.Reader) int {
	p := r.Bytes()
	n := 0
	for _, b := range p {
		n += int(b)
	}
	return n
}

func (m *msg) justified(r *wire.Reader) error {
	//lint:framealias fixture: the caller copies m.data before the frame is released
	m.data = r.Bytes()
	return r.Err()
}

// fieldsRegion keeps the region wire.Reader.Fields returns beside its
// count: a slice of the frame like a Bytes result.
func (m *msg) fieldsRegion(r *wire.Reader) error {
	_, m.data = r.Fields() // want "stored beyond the decode"
	return r.Err()
}

func (m *msg) fieldsViaLocal(r *wire.Reader) int {
	n, region := r.Fields()
	m.data = region[1:] // want "stored beyond the decode"
	return n
}

func fieldsReturned(r *wire.Reader) (int, []byte) {
	return r.Fields() // want "result returned"
}

// fieldsCopied copies the region before keeping it, the way a decoder
// that keeps a batch's fields does.
func (m *msg) fieldsCopied(r *wire.Reader) int {
	n, region := r.Fields()
	m.name = string(region)
	m.data = append([]byte(nil), region...)
	return n
}

// keeper is a response that declares a KeepsFrame method. No method
// exempts a DecodeFrom: rpc recycles every response frame once the
// decode returns, so its stores are findings like any other.
type keeper struct {
	data   []byte
	values [][]byte
}

func (k *keeper) KeepsFrame() {}

func (k *keeper) DecodeFrom(r *wire.Reader) error {
	k.data = r.Bytes() // want "stored beyond the decode"
	k.values = make([][]byte, r.Uvarint())
	for i := range k.values {
		k.values[i] = r.Bytes() // want "stored beyond the decode"
	}
	return r.Err()
}

// batchReq is keeper's decode on the request side: a finding there
// too, element by element.
func (m *msg) batchReq(r *wire.Reader) error {
	m.values = make([][]byte, r.Uvarint())
	for i := range m.values {
		m.values[i] = r.Bytes() // want "stored beyond the decode"
	}
	return r.Err()
}
