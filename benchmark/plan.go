package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Every block and record the benchmark writes starts with a 16-byte
// header naming who wrote it and in which order; the body is a window
// into a seed-derived pool, so verification regenerates the expected
// bytes from (seed, header) alone and compares every byte without
// keeping a copy of what was written.
const (
	headerLen = 16
	magic     = 0xB5EE
	poolLen   = 1 << 20 // window start range; the pool is this plus the largest body
)

// payloads generates and checks the benchmark's data units.
type payloads struct {
	seed int64
	pool []byte
}

func newPayloads(seed int64, maxUnit int) *payloads {
	p := &payloads{seed: seed, pool: make([]byte, poolLen+maxUnit)}
	rand.New(rand.NewSource(seed)).Read(p.pool)
	return p
}

// mix is splitmix64's finalizer: a cheap, well-spread hash of the
// (seed, client, seq) triple into a pool offset.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *payloads) bodyOff(client uint32, seq uint64) int {
	return int(mix(uint64(p.seed)^mix(uint64(client)<<48^seq)) % poolLen)
}

// fill writes unit (client, seq) into dst, whose length is the unit size.
func (p *payloads) fill(dst []byte, client uint32, seq uint64) {
	binary.LittleEndian.PutUint16(dst[0:], magic)
	binary.LittleEndian.PutUint16(dst[2:], uint16(len(dst)>>4))
	binary.LittleEndian.PutUint32(dst[4:], client)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	off := p.bodyOff(client, seq)
	copy(dst[headerLen:], p.pool[off:off+len(dst)-headerLen])
}

// check verifies one whole unit and returns who wrote it.
func (p *payloads) check(unit []byte) (client uint32, seq uint64, err error) {
	if len(unit) < headerLen {
		return 0, 0, fmt.Errorf("unit of %d bytes is shorter than its header", len(unit))
	}
	if binary.LittleEndian.Uint16(unit[0:]) != magic ||
		binary.LittleEndian.Uint16(unit[2:]) != uint16(len(unit)>>4) {
		return 0, 0, fmt.Errorf("bad unit header % x", unit[:headerLen])
	}
	client = binary.LittleEndian.Uint32(unit[4:])
	seq = binary.LittleEndian.Uint64(unit[8:])
	off := p.bodyOff(client, seq)
	if !bytes.Equal(unit[headerLen:], p.pool[off:off+len(unit)-headerLen]) {
		return client, seq, fmt.Errorf("body of unit (client %d, seq %d) does not match its seed", client, seq)
	}
	return client, seq, nil
}

// orderCheck asserts that units arrive exactly once and in per-client
// order. With full set, every seq in [0, want) must appear for every
// client; without it (sampled reads) only order and range are checked.
type orderCheck struct {
	next map[uint32]uint64 // next acceptable seq per client
	seen map[uint32]uint64 // units seen per client
}

func newOrderCheck() *orderCheck {
	return &orderCheck{next: map[uint32]uint64{}, seen: map[uint32]uint64{}}
}

func (o *orderCheck) add(client uint32, seq uint64) error {
	if seq < o.next[client] {
		return fmt.Errorf("client %d: seq %d after %d (duplicate or reordered)", client, seq, o.next[client])
	}
	o.next[client] = seq + 1
	o.seen[client]++
	return nil
}

// complete reports whether each of clients wrote exactly want units
// with no gaps (valid only after a full, unsampled pass).
func (o *orderCheck) complete(clients int, want uint64) error {
	if len(o.seen) != clients {
		return fmt.Errorf("%d distinct writers, want %d", len(o.seen), clients)
	}
	for c, n := range o.seen {
		if n != want || o.next[c] != want {
			return fmt.Errorf("client %d: %d units up to seq %d, want exactly %d", c, n, o.next[c], want)
		}
	}
	return nil
}

// planHash fingerprints the op plan of a workload: everything the seed
// decides (payload pool, targets, offsets), none of what timing decides.
func planHash(workload string, seed int64, scale float64) (uint64, error) {
	w, ok := workloads[workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%g/", workload, scale)
	w.plan(seed, scale, h)
	return h.Sum64(), nil
}
