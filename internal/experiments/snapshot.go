package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/metrics"
)

// SnapshotResult demonstrates the snapshot-first API end to end: while
// snapAppenders concurrent appenders keep growing one shared file,
//
//   - fixed-version readers (OpenVersion) return byte-identical data
//     for their snapshot across the whole run — each open holds a GC
//     pin, so retention never reclaims a snapshot out from under a
//     live reader;
//   - a WaitVersion tailing reader follows the file as a sequence of
//     immutable prefixes, each extending the last;
//   - a Map/Reduce job submitted mid-append pins its input version at
//     submit and processes exactly the bytes that existed then,
//     however far the appenders grow the file during the job;
//   - once every pin is released, a GC pass under RetainLatest
//     collects the old snapshots and re-opening one fails with the
//     stable dfs.ErrVersionGone sentinel.
type SnapshotResult struct {
	Appenders int
	Rounds    int // page-sized appends per appender

	// FixedSnapshots is how many distinct versions were pinned and
	// re-verified; FixedReads counts the verification reads, all of
	// which returned bytes identical to the first read (the scenario
	// fails otherwise).
	FixedSnapshots int
	FixedReads     int

	// TailVersions is how many snapshots the tailing reader observed;
	// every one extended the previous (consistent prefixes).
	TailVersions int

	// PinnedVersion/PinnedSize are the mid-append job's input pin;
	// JobInputBytes is what its splits covered (== PinnedSize) and
	// JobRecords the records its maps read (== PinnedSize per line).
	PinnedVersion uint64
	PinnedSize    uint64
	JobInputBytes uint64
	JobRecords    uint64
	FinalSize     uint64

	// VersionsListed is the retention window's length at the end;
	// VersionsCollected counts snapshots the final GC pass reclaimed
	// after the pins released, and GoneAfterGC reports that re-opening
	// a collected snapshot failed with dfs.ErrVersionGone.
	VersionsListed    int
	VersionsCollected uint64
	GoneAfterGC       bool
}

// Scenario shape: 8+ concurrent appenders (the acceptance floor),
// fixed-width records so the mid-append job's input is arithmetically
// checkable, and a retention policy tight enough that the final GC
// pass visibly collects history once the pins release.
const (
	snapAppenders = 8
	snapRounds    = 6
	snapLineBytes = 64
	snapRetain    = 4
)

// snapBlock builds one page of fixed-width newline-terminated records.
func snapBlock(pageSize uint64, appender, round int) []byte {
	var b bytes.Buffer
	for b.Len() < int(pageSize) {
		line := fmt.Sprintf("appender=%03d round=%03d seq=%06d", appender, round, b.Len()/snapLineBytes)
		for len(line) < snapLineBytes-1 {
			line += "."
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.Bytes()[:pageSize]
}

// snapReadAll reads a fixed-version reader fully.
func snapReadAll(r dfs.FileReader) ([]byte, error) {
	buf := make([]byte, r.Size())
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// fixedSnap is one pinned fixed-version reader under verification.
type fixedSnap struct {
	ver uint64
	r   dfs.VersionedReader
	sum [32]byte
}

// Snapshot runs the snapshot-consistency scenario.
func Snapshot(cfg Config) (*SnapshotResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Retain == 0 {
		cfg.Retain = snapRetain
	}
	env, err := newBSFSEnvStore(cfg, blob.StoreMemory)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	res := &SnapshotResult{Appenders: snapAppenders, Rounds: snapRounds}
	const path = "/snap/events"
	fs := env.mount(0)
	if err := dfs.WriteFile(ctx, fs, path, snapBlock(cfg.BlockSize, 999, 0)); err != nil {
		return nil, err
	}

	// --- Appenders: page-aligned atomic appends, fully concurrent,
	// in two phases. Phase 1 runs immediately; each appender then
	// flushes (so the mid-run state is fully published) and parks at a
	// barrier until the mid-append job's first map record is read —
	// which is after the job pinned its input version — so phase 2 is
	// guaranteed to overlap the running job and every later
	// verification races real concurrent growth, deterministically. ---
	var wg, phase1 sync.WaitGroup
	resume := make(chan struct{})
	appErr := make(chan error, snapAppenders)
	wg.Add(snapAppenders)
	phase1.Add(snapAppenders)
	for w := 0; w < snapAppenders; w++ {
		go func(w int) {
			defer wg.Done()
			phase1Done := false
			defer func() {
				if !phase1Done {
					phase1.Done() // error exits must not wedge the barrier
				}
			}()
			m := env.mount(w + 1)
			f, err := m.Append(ctx, path)
			if err != nil {
				appErr <- fmt.Errorf("appender %d: %w", w, err)
				return
			}
			defer f.Close()
			half := snapRounds / 2
			for r := 0; r < snapRounds; r++ {
				if r == half {
					if err := f.(dfs.Flusher).Flush(); err != nil {
						appErr <- fmt.Errorf("appender %d flush: %w", w, err)
						return
					}
					phase1Done = true
					phase1.Done()
					<-resume
				}
				if _, err := f.Write(snapBlock(cfg.BlockSize, w, r)); err != nil {
					appErr <- fmt.Errorf("appender %d round %d: %w", w, r, err)
					return
				}
			}
			if err := f.Close(); err != nil {
				appErr <- fmt.Errorf("appender %d close: %w", w, err)
			}
		}(w)
	}

	// --- Tailing reader: WaitVersion + OpenVersion, reading only each
	// snapshot's new suffix; every snapshot must extend the last. ---
	tailCtx, tailStop := context.WithCancel(ctx)
	tailDone := make(chan error, 1)
	go func() {
		m := env.mount(snapAppenders + 1)
		vfs := dfs.VersionedFileSystem(m)
		var after, prevSize uint64
		n := 0
		for {
			vi, err := vfs.WaitVersion(tailCtx, path, after)
			if err != nil {
				if tailCtx.Err() != nil {
					break // appenders finished; clean exit
				}
				tailDone <- fmt.Errorf("tail wait after %d: %w", after, err)
				return
			}
			if vi.Size < prevSize {
				tailDone <- fmt.Errorf("tail: snapshot %d shrank: %d < %d", vi.Version, vi.Size, prevSize)
				return
			}
			r, err := vfs.OpenVersion(tailCtx, path, vi.Version)
			if err != nil {
				if tailCtx.Err() != nil {
					break
				}
				tailDone <- fmt.Errorf("tail open %d: %w", vi.Version, err)
				return
			}
			if vi.Size > prevSize {
				suffix := make([]byte, vi.Size-prevSize)
				if _, err := r.ReadAt(suffix, int64(prevSize)); err != nil && err != io.EOF {
					r.Close()
					if tailCtx.Err() != nil {
						break
					}
					tailDone <- fmt.Errorf("tail read %d: %w", vi.Version, err)
					return
				}
			}
			r.Close()
			prevSize = vi.Size
			after = vi.Version
			n++
		}
		res.TailVersions = n
		tailDone <- nil
	}()

	// --- Fixed-version snapshots, pinned while the file grows. ---
	var fixed []fixedSnap
	pinSnapshot := func() error {
		fi, err := fs.Stat(ctx, path)
		if err != nil {
			return err
		}
		r, err := fs.OpenVersion(ctx, path, fi.Version)
		if err != nil {
			return fmt.Errorf("pin snapshot %d: %w", fi.Version, err)
		}
		data, err := snapReadAll(r)
		if err != nil {
			r.Close()
			return fmt.Errorf("first read of snapshot %d: %w", fi.Version, err)
		}
		fixed = append(fixed, fixedSnap{ver: fi.Version, r: r, sum: sha256.Sum256(data)})
		return nil
	}
	// verifyFixed re-reads every pinned snapshot — through the held
	// reader AND through a fresh versioned open — and fails unless the
	// bytes are identical to the first read.
	verifyFixed := func() error {
		for _, s := range fixed {
			data, err := snapReadAll(s.r)
			if err != nil {
				return fmt.Errorf("re-read of held snapshot %d: %w", s.ver, err)
			}
			if sha256.Sum256(data) != s.sum {
				return fmt.Errorf("snapshot %d: held reader bytes changed", s.ver)
			}
			res.FixedReads++
			r2, err := fs.OpenVersion(ctx, path, s.ver)
			if err != nil {
				return fmt.Errorf("re-open of snapshot %d: %w", s.ver, err)
			}
			data, err = snapReadAll(r2)
			r2.Close()
			if err != nil {
				return fmt.Errorf("re-read of re-opened snapshot %d: %w", s.ver, err)
			}
			if sha256.Sum256(data) != s.sum {
				return fmt.Errorf("snapshot %d: re-opened bytes changed", s.ver)
			}
			res.FixedReads++
		}
		return nil
	}
	closeFixed := func() {
		for _, s := range fixed {
			s.r.Close()
		}
		fixed = nil
	}
	defer closeFixed()

	// fail drains the scenario's goroutines (appenders run a finite
	// script once released, and the tailer honours tailStop) before
	// tearing the environment down, so no goroutine touches a closed
	// deployment.
	var resumeOnce sync.Once
	release := func() { resumeOnce.Do(func() { close(resume) }) }
	fail := func(err error) (*SnapshotResult, error) {
		release()
		wg.Wait()
		tailStop()
		<-tailDone
		return nil, err
	}

	// Pin the first fixed snapshot at the phase-1 barrier: a fully
	// published mid-run state the second half of the appends will grow
	// straight past.
	phase1.Wait()
	if err := pinSnapshot(); err != nil {
		return fail(err)
	}

	// --- Mid-append Map/Reduce job: input pinned at submit. ---
	hosts := env.cluster.ProviderHosts()
	if len(hosts) > snapAppenders {
		hosts = hosts[:snapAppenders]
	}
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   env.net,
		Hosts: hosts,
		Mount: func(host string) dfs.FileSystem { return env.deploy.Mount(host) },
	})
	if err != nil {
		return fail(err)
	}
	defer fw.Close()
	sum := func(key []byte, values [][]byte, out *mapreduce.Emitter) {
		out.Emit(key, strconv.AppendInt(nil, int64(len(values)), 10))
	}
	job, err := fw.Run(ctx, mapreduce.JobConf{
		Name:      "snapshot-linecount",
		Input:     []string{path},
		OutputDir: "/snap/out",
		// The first record read proves the job pinned its input and is
		// consuming it; releasing the appenders here makes phase 2
		// overlap the job deterministically.
		Map: func(_, _ []byte, out *mapreduce.Emitter) {
			release()
			out.Emit([]byte("lines"), []byte("1"))
		},
		Combine:     sum,
		Reduce:      sum,
		NumReducers: 1,
	})
	release() // belt and braces: never leave the appenders parked
	if err != nil {
		return fail(fmt.Errorf("mid-append job: %w", err))
	}
	res.PinnedVersion = job.InputVersions[path]
	res.JobInputBytes = job.InputBytes
	res.JobRecords = job.MapInputRecords
	if res.PinnedVersion == 0 {
		return fail(errors.New("mid-append job did not pin its input version"))
	}
	// The pinned snapshot's own size is the ground truth the job must
	// have covered — resolvable from history because the held fixed
	// pins keep the collection frontier below it.
	infos, err := fs.Versions(ctx, path)
	if err != nil {
		return fail(err)
	}
	for _, vi := range infos {
		if vi.Version == res.PinnedVersion {
			res.PinnedSize = vi.Size
		}
	}
	if res.PinnedSize == 0 {
		return fail(fmt.Errorf("pinned version %d missing from history", res.PinnedVersion))
	}
	if res.JobInputBytes != res.PinnedSize {
		return fail(fmt.Errorf("job covered %d bytes, pinned snapshot has %d", res.JobInputBytes, res.PinnedSize))
	}
	if want := res.PinnedSize / snapLineBytes; res.JobRecords != want {
		return fail(fmt.Errorf("job read %d records, pinned snapshot holds %d", res.JobRecords, want))
	}

	// Verify the fixed snapshots while appends continue, pin another,
	// then drain the appenders.
	if err := verifyFixed(); err != nil {
		return fail(err)
	}
	if err := pinSnapshot(); err != nil {
		return fail(err)
	}
	wg.Wait()
	close(appErr)
	for err := range appErr {
		return fail(err)
	}
	tailStop()
	if err := <-tailDone; err != nil {
		return nil, err
	}

	// A GC pass with every fixed pin still held: nothing a fixed
	// reader serves may be reclaimed, so every snapshot must still
	// verify byte-identical afterwards.
	if _, err := env.deploy.GC.RunOnce(ctx); err != nil {
		return nil, err
	}
	if err := verifyFixed(); err != nil {
		return nil, err
	}
	res.FixedSnapshots = len(fixed)
	oldest := fixed[0].ver

	fi, err := fs.Stat(ctx, path)
	if err != nil {
		return nil, err
	}
	res.FinalSize = fi.Size
	if res.FinalSize <= res.PinnedSize {
		return nil, fmt.Errorf("file did not grow past the pinned snapshot: %d <= %d", res.FinalSize, res.PinnedSize)
	}

	// Release the pins: the next pass collects history down to the
	// retention window, and the collected snapshot answers with the
	// stable sentinel.
	closeFixed()
	collected := metrics.Default.Counter("gc_versions_collected")
	before := collected.Load()
	if _, err := env.deploy.GC.RunOnce(ctx); err != nil {
		return nil, err
	}
	res.VersionsCollected = collected.Load() - before
	infos, err = fs.Versions(ctx, path)
	if err != nil {
		return nil, err
	}
	res.VersionsListed = len(infos)
	if _, err := fs.OpenVersion(ctx, path, oldest); errors.Is(err, dfs.ErrVersionGone) {
		res.GoneAfterGC = true
	} else if err == nil {
		return nil, fmt.Errorf("snapshot %d still readable after unpinned GC pass", oldest)
	} else {
		return nil, fmt.Errorf("snapshot %d after GC: got %v, want dfs.ErrVersionGone", oldest, err)
	}
	return res, nil
}

// snapMountType pins the compile-time assumption that experiment
// mounts expose the full versioned capability.
var _ dfs.VersionedFileSystem = (*bsfs.FS)(nil)
