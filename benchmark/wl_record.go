package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"blobseer"
	"blobseer/internal/dfs"
)

// recordAppend is the shared-append reducer pattern: nproc writers
// append 1000-byte records, each an atomic unaligned append (Write +
// Flush), to 8 shared files of 16 KiB blocks, over two version-manager
// shards that journal to disk (kvlog's default policy: no fsync, the
// OS page cache decides). Each slice writes a fresh set of files — the
// cost of an append grows with a file's version history, so an
// unrotated run would measure how long it ran — and the set is verified
// when the slice ends and deleted before the next begins. The run ends
// by killing and restarting both shards and re-reading every acked
// record of the last set through a new mount.
type recordAppend struct {
	*deployment
	pay          *payloads
	opsPerClient int // per slice
	last         int // slice whose files are still stored, -1 for none
}

const (
	recordBlock = 16 << 10
	recordLen   = 1000
	recordFiles = 8
)

func recordPath(slice, f int) string { return fmt.Sprintf("/bench/s%05d/records-%d", slice, f) }

// recordFile is the plan: which file of its slice's set record
// (client, seq) goes to.
func recordFile(seed int64, client uint32, seq uint64) int {
	return int(mix(mix(uint64(seed))^(uint64(client)<<56|seq)) % recordFiles)
}

func recordOps(e *env) int { return e.n(2000, 8) }

func planRecordAppend(seed int64, scale float64, h io.Writer) {
	pay := newPayloads(seed, recordLen)
	h.Write(pay.pool[:4096])
	n := uint64(recordOps(&env{seed: seed, scale: scale}))
	for c := uint32(0); c < nproc; c++ {
		for seq := uint64(0); seq < n; seq++ {
			fmt.Fprintf(h, "%d/%d>%d@%d;", c, seq, recordFile(seed, c, seq), pay.bodyOff(c, seq))
		}
	}
}

func setupRecordAppend(ctx context.Context, e *env) (instance, error) {
	d, err := e.boot(clusterSpec{blockSize: recordBlock, vmShards: 2, journal: true})
	if err != nil {
		return nil, err
	}
	w := &recordAppend{deployment: d, pay: newPayloads(e.seed, recordLen), opsPerClient: recordOps(e), last: -1}
	if _, err := w.slice(ctx, 0); err != nil { // warm-up
		d.Close()
		return nil, err
	}
	return w, nil
}

func (w *recordAppend) slice(ctx context.Context, i int) (sliceStat, error) {
	var st sliceStat
	tr := w.e.tr
	if err := w.dropLast(ctx, &st); err != nil {
		return st, err
	}
	var writers [nproc][recordFiles]dfs.FileWriter
	for c := 0; c < nproc; c++ {
		for f := 0; f < recordFiles; f++ {
			sp := tr.begin("bsfs.append_open", -1, -1)
			fw, err := w.clients[c].Append(ctx, recordPath(i, f))
			tr.end(sp)
			if err != nil {
				return st, err
			}
			writers[c][f] = fw
		}
	}
	w.last = i

	lats := make([][]time.Duration, nproc)
	errs := make([]error, nproc)
	p := w.openWindow()
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c], errs[c] = w.client(c, i, &writers[c])
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
	st.userBytes = int64(st.ops) * recordLen
	w.attempted.Add(int64(st.ops))
	// Every record is flushed and every writer closed: quiescent.
	st.stored = float64(w.c.Blob.ProviderBytes()) / float64(st.userBytes)
	st.imbalance = w.imbalance()
	if err := w.verify(ctx, w.verifier, i); err != nil {
		w.fail(err)
	}
	return st, nil
}

// dropLast deletes the previous slice's files, clock stopped, and waits
// for their pages to be reclaimed.
func (w *recordAppend) dropLast(ctx context.Context, st *sliceStat) error {
	if w.last < 0 {
		return nil
	}
	for f := 0; f < recordFiles; f++ {
		sp := w.e.tr.begin("bsfs.delete", -1, -1)
		err := w.verifier.Delete(ctx, recordPath(w.last, f))
		w.e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	w.last = -1
	st.reclaim, st.leftover = w.awaitStored(ctx, 0)
	st.rotated = true
	return nil
}

func (w *recordAppend) client(c, slice int, writers *[recordFiles]dfs.FileWriter) ([]time.Duration, error) {
	tr := w.e.tr
	buf := make([]byte, recordLen)
	lat := make([]time.Duration, 0, w.opsPerClient)
	for k := 0; k < w.opsPerClient; k++ {
		seq := uint64(k)
		if w.e.fault == "drop" && slice == 1 && c == 0 && seq == 5 {
			continue // planned and counted, never written
		}
		w.pay.fill(buf, uint32(c), seq)
		fw := writers[recordFile(w.e.seed, uint32(c), seq)]
		opID := int64(slice)<<32 | int64(c)<<24 | int64(k)
		t0 := time.Now()
		root := tr.begin("op", -1, opID)
		sp := tr.begin("bsfs.write", root, opID)
		_, err := fw.Write(buf)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("bsfs.flush", root, opID)
			err = fw.(dfs.Flusher).Flush()
			tr.end(sp)
		}
		tr.end(root)
		if err != nil {
			return lat, fmt.Errorf("client %d record %d: %w", c, seq, err)
		}
		lat = append(lat, time.Since(t0))
	}
	for _, fw := range writers {
		sp := tr.begin("bsfs.close", -1, -1)
		err := fw.Close()
		tr.end(sp)
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// verify re-reads a slice's files through m: each a concatenation of
// whole, untorn records, every record in the file the plan sent it to,
// in per-client order, and exactly as many as were acked.
func (w *recordAppend) verify(ctx context.Context, m *blobseer.Mount, slice int) error {
	var want [recordFiles]uint64
	for c := uint32(0); c < nproc; c++ {
		for seq := uint64(0); seq < uint64(w.opsPerClient); seq++ {
			want[recordFile(w.e.seed, c, seq)]++
		}
	}
	buf := make([]byte, 64*recordLen)
	for f := 0; f < recordFiles; f++ {
		path := recordPath(slice, f)
		r, err := m.Open(ctx, path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		err = w.verifyFile(r, f, want[f], buf)
		r.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

func (w *recordAppend) verifyFile(r dfs.FileReader, f int, want uint64, buf []byte) error {
	if r.Size() != want*recordLen {
		return fmt.Errorf("size %d, want %d records of %d bytes", r.Size(), want, recordLen)
	}
	order := newOrderCheck()
	for off := uint64(0); off < r.Size(); {
		n := uint64(len(buf))
		if left := r.Size() - off; left < n {
			n = left
		}
		if err := readFull(r, buf[:n], int64(off)); err != nil {
			return err
		}
		for p := uint64(0); p < n; p += recordLen {
			c, seq, err := w.pay.check(buf[p : p+recordLen])
			if err == nil && recordFile(w.e.seed, c, seq) != f {
				err = fmt.Errorf("record (client %d, seq %d) belongs to file %d", c, seq, recordFile(w.e.seed, c, seq))
			}
			if err == nil {
				err = order.add(c, seq)
			}
			if err != nil {
				return fmt.Errorf("record at %d: %w", off+p, err)
			}
		}
		off += n
	}
	return nil
}

// finish crashes both version-manager shards, restarts them from their
// journals, and verifies the last slice's files again: data acked
// before the crash must all still be there.
func (w *recordAppend) finish(ctx context.Context) (map[string]float64, error) {
	shards := len(w.c.Blob.VMAddrs())
	t0 := time.Now()
	for i := 0; i < shards; i++ {
		if err := w.c.Blob.KillVM(i); err != nil {
			return nil, fmt.Errorf("kill shard %d: %w", i, err)
		}
	}
	for i := 0; i < shards; i++ {
		if err := w.c.Blob.RestartVM(i); err != nil {
			return nil, fmt.Errorf("restart shard %d: %w", i, err)
		}
	}
	recovery := time.Since(t0)
	// A fresh mount: the old verifier would answer from its own caches
	// without asking the restarted shards anything.
	fresh := w.c.Mount("client-v2")
	defer fresh.Close()
	if err := w.verify(ctx, fresh, w.last); err != nil {
		w.fail(fmt.Errorf("after restart: %w", err))
	}
	return map[string]float64{"vm.recover_ms": ms(recovery)}, nil
}
