package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"blobseer/internal/dfs"
)

// appendShared is append_shared and append_shared_lan: nproc clients
// append 256 KiB ops (four single-page appends, pipelined, then Flush
// for the ack) to one shared file. One file per slice; between slices,
// clock stopped, the file is verified and deleted and the providers
// drain back to empty, so every slice sees the same heap and page store.
type appendShared struct {
	*deployment
	pay          *payloads
	opsPerClient int
	sampled      int // blocks read back per slice after the first
}

const (
	appendBlock    = 64 << 10
	appendOpBlocks = 4
	appendOpBytes  = appendBlock * appendOpBlocks
)

func appendOps(e *env, lan bool) int {
	if lan {
		return e.n(24, 2)
	}
	return e.n(512, 8)
}

func setupAppendShared(lan bool) func(ctx context.Context, e *env) (instance, error) {
	return func(ctx context.Context, e *env) (instance, error) {
		d, err := e.boot(clusterSpec{blockSize: appendBlock, lan: lan})
		if err != nil {
			return nil, err
		}
		w := &appendShared{
			deployment:   d,
			pay:          newPayloads(e.seed, appendBlock),
			opsPerClient: appendOps(e, lan),
			sampled:      sampledBlocks(lan),
		}
		if _, err := w.slice(ctx, 0); err != nil { // warm-up
			d.Close()
			return nil, err
		}
		return w, nil
	}
}

func planAppendShared(lan bool) func(seed int64, scale float64, h io.Writer) {
	return func(seed int64, scale float64, h io.Writer) {
		e := &env{seed: seed, scale: scale}
		pay := newPayloads(seed, appendBlock)
		ops := appendOps(e, lan)
		h.Write(pay.pool[:4096])
		for c := uint32(0); c < nproc; c++ {
			for seq := uint64(0); seq < uint64(ops*appendOpBlocks); seq++ {
				fmt.Fprintf(h, "%d/%d@%d;", c, seq, pay.bodyOff(c, seq))
			}
		}
	}
}

func (w *appendShared) slice(ctx context.Context, i int) (sliceStat, error) {
	var st sliceStat
	tr := w.e.tr
	path := fmt.Sprintf("/bench/shared-%05d", i)

	writers := make([]dfs.FileWriter, nproc)
	for c := range writers {
		sp := tr.begin("bsfs.append_open", -1, -1)
		fw, err := w.clients[c].Append(ctx, path)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		writers[c] = fw
	}

	lats := make([][]time.Duration, nproc)
	errs := make([]error, nproc)
	p := w.openWindow()
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c], errs[c] = w.client(c, i, writers[c])
		}(c)
	}
	wg.Wait()
	p.close(&st)
	for c := range errs {
		if errs[c] != nil {
			return st, errs[c]
		}
		st.lat = append(st.lat, lats[c]...)
	}
	st.ops = nproc * w.opsPerClient
	st.userBytes = int64(st.ops) * appendOpBytes
	w.attempted.Add(int64(st.ops))

	stored := w.c.Blob.ProviderBytes()
	st.stored = float64(stored) / float64(st.userBytes)
	st.imbalance = w.imbalance()
	if err := w.verify(ctx, path, i, st.userBytes); err != nil {
		w.fail(fmt.Errorf("%s: %w", path, err))
	}

	sp := tr.begin("bsfs.delete", -1, -1)
	err := w.verifier.Delete(ctx, path)
	tr.end(sp)
	if err != nil {
		return st, err
	}
	st.reclaim, st.leftover = w.awaitStored(ctx, 0)
	st.rotated = true
	return st, nil
}

// client is one appender's closed loop over a slice.
func (w *appendShared) client(c, slice int, fw dfs.FileWriter) ([]time.Duration, error) {
	tr := w.e.tr
	fl, ok := fw.(dfs.Flusher)
	if !ok {
		return nil, fmt.Errorf("writer %T cannot Flush", fw)
	}
	buf := make([]byte, appendOpBytes)
	lat := make([]time.Duration, 0, w.opsPerClient)
	for k := 0; k < w.opsPerClient; k++ {
		for j := 0; j < appendOpBlocks; j++ {
			w.pay.fill(buf[j*appendBlock:(j+1)*appendBlock], uint32(c), uint64(k*appendOpBlocks+j))
		}
		if w.e.fault == "flip" && slice == 1 && c == 0 && k == 1 {
			buf[appendBlock+headerLen+7] ^= 0x40
		}
		opID := int64(slice)<<32 | int64(c)<<24 | int64(k)
		t0 := time.Now()
		root := tr.begin("op", -1, opID)
		sp := tr.begin("bsfs.write", root, opID)
		_, err := fw.Write(buf)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("bsfs.flush", root, opID)
			err = fl.Flush()
			tr.end(sp)
		}
		tr.end(root)
		if err != nil {
			return lat, fmt.Errorf("client %d op %d: %w", c, k, err)
		}
		lat = append(lat, time.Since(t0))
	}
	sp := tr.begin("bsfs.close", -1, -1)
	err := fw.Close()
	tr.end(sp)
	return lat, err
}

// verify checks the slice's file: exact size; every block whole, from
// its seed, and in per-client order. The first measured slice is read
// in full (so every (client, seq) is seen exactly once); the warm-up
// and later slices are sampled.
func (w *appendShared) verify(ctx context.Context, path string, slice int, wantSize int64) error {
	fi, err := w.verifier.Stat(ctx, path)
	if err != nil {
		return err
	}
	if int64(fi.Size) != wantSize {
		return fmt.Errorf("size %d, want %d", fi.Size, wantSize)
	}
	r, err := w.verifier.OpenVersion(ctx, path, fi.Version)
	if err != nil {
		return err
	}
	defer r.Close()
	blocks := int(wantSize / appendBlock)
	full := slice == 1 || blocks <= w.sampled
	var idx []int
	if full {
		idx = make([]int, blocks)
		for b := range idx {
			idx[b] = b
		}
	} else {
		idx = rand.New(rand.NewSource(w.e.seed + int64(slice))).Perm(blocks)[:w.sampled]
		sort.Ints(idx)
	}
	order := newOrderCheck()
	buf := make([]byte, appendBlock)
	for _, b := range idx {
		if err := readFull(r, buf, int64(b)*appendBlock); err != nil {
			return err
		}
		c, seq, err := w.pay.check(buf)
		if err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		if err := order.add(c, seq); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
	}
	if full {
		return order.complete(nproc, uint64(w.opsPerClient*appendOpBlocks))
	}
	return nil
}

func (w *appendShared) finish(context.Context) (map[string]float64, error) { return nil, nil }

// sampledBlocks is how many blocks a sampled verification reads back;
// over the modeled wire every block costs a round trip, so fewer.
func sampledBlocks(lan bool) int {
	if lan {
		return 16
	}
	return 64
}
