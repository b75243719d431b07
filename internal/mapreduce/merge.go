package mapreduce

import "bytes"

// pairMerger streams the k-way merge of individually sorted runs (the
// per-map output partitions, each sorted by recordBuffer.sort) in key,
// then value, byte order. The reduce phase consumes groups straight
// off the merge instead of buffering the whole concatenation and
// re-sorting it: O(N log k) comparisons in place of an O(N log N) full
// sort, and no copy of any pair — what next returns are views of the
// runs' segments, good for as long as the segments are.
type pairMerger struct {
	runs  []run
	heads []int // binary min-heap of run indices, ordered by head pair
}

// newPairMerger builds a merger over the runs; empty runs are skipped.
func newPairMerger(runs []run) *pairMerger {
	m := &pairMerger{runs: runs}
	for i := range runs {
		if runs[i].left > 0 {
			m.heads = append(m.heads, i)
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// less orders two runs by their head pairs, in the order the runs are
// sorted in, so the merged stream is exactly what sorting the
// concatenation would produce.
func (m *pairMerger) less(a, b int) bool {
	ra, rb := &m.runs[a], &m.runs[b]
	if c := bytes.Compare(ra.key, rb.key); c != 0 {
		return c < 0
	}
	return bytes.Compare(ra.val, rb.val) < 0
}

// down restores the heap property below slot i.
func (m *pairMerger) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heads) && m.less(m.heads[l], m.heads[small]) {
			small = l
		}
		if r < len(m.heads) && m.less(m.heads[r], m.heads[small]) {
			small = r
		}
		if small == i {
			return
		}
		m.heads[i], m.heads[small] = m.heads[small], m.heads[i]
		i = small
	}
}

// next pops the smallest remaining pair; ok is false when all runs are
// exhausted.
func (m *pairMerger) next() (key, val []byte, ok bool) {
	if len(m.heads) == 0 {
		return nil, nil, false
	}
	r := &m.runs[m.heads[0]]
	key, val = r.key, r.val
	r.advance()
	if r.left == 0 {
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	}
	m.down(0)
	return key, val, true
}
