package experiments

import (
	"fmt"
	"sync"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/metrics"
)

// Figures 4 and 5 share one scenario (§4.2): a shared file, a fixed
// group of one kind of client, a swept group of the other kind, and
// the mean per-operation throughput of the measured group. Readers
// process 10 chunks each from disjoint regions of the preloaded file;
// appenders append their chunks at the tail. Versioning isolates the
// two completely — that is the claim the figures support.

const (
	chunksPerReader   = 10
	chunksPerAppender = 16 // Fig 4 (§4.2: appenders write 16 chunks)
	fixedReaders      = 100
	fixedAppenders    = 100
)

// Fig4 reproduces Figure 4: "Impact of concurrent appends on
// concurrent reads from the same file" — 100 readers, 0..N appenders,
// reporting read throughput.
func Fig4(cfg Config, appenders []int) (*metrics.Series, error) {
	cfg = cfg.withDefaults()
	series := &metrics.Series{
		Name:   "BSFS read",
		XLabel: "appenders",
		YLabel: "read avg throughput (MB/s)",
	}
	err := runMixed(cfg, "fig4", appenders, func(point, x int) (readers, appenders, appChunks int) {
		return fixedReaders, x, chunksPerAppender
	}, func(readSum, appendSum metrics.Summary, x int) {
		series.Add(float64(x), readSum.MeanMBps, (readSum.P95MBps-readSum.P5MBps)/2)
	})
	return series, err
}

// Fig5 reproduces Figure 5: "Impact of concurrent reads on concurrent
// appends to the same file" — 100 appenders (10 chunks each, like the
// readers, per §4.2), 0..N readers, reporting append throughput.
func Fig5(cfg Config, readers []int) (*metrics.Series, error) {
	cfg = cfg.withDefaults()
	series := &metrics.Series{
		Name:   "BSFS append",
		XLabel: "readers",
		YLabel: "append avg throughput (MB/s)",
	}
	err := runMixed(cfg, "fig5", readers, func(point, x int) (r, a, appChunks int) {
		return x, fixedAppenders, chunksPerReader
	}, func(readSum, appendSum metrics.Summary, x int) {
		series.Add(float64(x), appendSum.MeanMBps, (appendSum.P95MBps-appendSum.P5MBps)/2)
	})
	return series, err
}

// runMixed drives the shared readers+appenders scenario across sweep
// points. shape maps a sweep value to (readers, appenders, chunks per
// appender); report receives the two summaries per point.
func runMixed(cfg Config, kind string, xs []int, shape func(point, x int) (int, int, int), report func(r, a metrics.Summary, x int)) error {
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()

	// Shared file, preloaded once so every reader has its disjoint
	// 10-chunk region ("Each client processes disjoint regions of the
	// file", §4.2).
	path := "/bench/" + kind + "/shared"
	if err := preload(env, cfg, path, fixedReaders*chunksPerReader); err != nil {
		return fmt.Errorf("%s preload: %w", kind, err)
	}

	// Mounts are created once and reused across points so client-side
	// history caches stay warm (fresh mounts would re-fetch the whole
	// write history and skew late points).
	maxR, maxA := 0, 0
	for pi, x := range xs {
		r, a, _ := shape(pi, x)
		if r > maxR {
			maxR = r
		}
		if a > maxA {
			maxA = a
		}
	}
	readerMounts := make([]*bsfs.FS, maxR)
	for i := range readerMounts {
		readerMounts[i] = env.mount(i)
	}
	appenderMounts := make([]*appendClient, maxA)
	for i := range appenderMounts {
		appenderMounts[i] = &appendClient{
			fs:   env.mount(maxR + i),
			path: path,
			data: chunk(cfg, i),
		}
	}

	for pi, x := range xs {
		nR, nA, appChunks := shape(pi, x)
		var readMeter, appendMeter metrics.Meter
		for rep := 0; rep < cfg.Reps; rep++ {
			if err := mixedRep(cfg, path, readerMounts[:nR], appenderMounts[:nA], appChunks, &readMeter, &appendMeter); err != nil {
				return fmt.Errorf("%s x=%d: %w", kind, x, err)
			}
		}
		report(metrics.Summarize(readMeter.Samples()), metrics.Summarize(appendMeter.Samples()), x)
	}
	return nil
}

// preload appends `chunks` chunks to path using 32 parallel loaders.
func preload(env *bsfsEnv, cfg Config, path string, chunks int) error {
	setup := env.mount(0)
	if err := dfs.WriteFile(ctx, setup, path, nil); err != nil {
		return err
	}
	const loaders = 32
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		n := chunks / loaders
		if l < chunks%loaders {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(l, n int) {
			defer wg.Done()
			fs := env.mount(l)
			w, err := fs.Append(ctx, path)
			if err != nil {
				errs <- err
				return
			}
			data := chunk(cfg, l)
			for i := 0; i < n; i++ {
				if _, err := w.Write(data); err != nil {
					errs <- err
					w.Close()
					return
				}
			}
			if err := w.Close(); err != nil {
				errs <- err
			}
		}(l, n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	env.closeMounts()
	return nil
}

// mixedRep runs one repetition: all readers and appenders start
// together; each reader reads its 10-chunk region chunk by chunk, each
// appender appends its chunks at the tail.
func mixedRep(cfg Config, path string, readers []*bsfs.FS, appenders []*appendClient, appChunks int, readMeter, appendMeter *metrics.Meter) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(readers)+len(appenders))
	start := make(chan struct{})

	for r, fs := range readers {
		wg.Add(1)
		go func(r int, fs *bsfs.FS) {
			defer wg.Done()
			f, err := fs.Open(ctx, path)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			<-start
			buf := make([]byte, cfg.BlockSize)
			base := uint64(r) * chunksPerReader * cfg.BlockSize
			for c := 0; c < chunksPerReader; c++ {
				off := base + uint64(c)*cfg.BlockSize
				t0 := time.Now()
				if _, err := f.ReadAt(buf, int64(off)); err != nil {
					errs <- fmt.Errorf("reader %d chunk %d: %w", r, c, err)
					return
				}
				readMeter.Record(cfg.BlockSize, time.Since(t0))
			}
		}(r, fs)
	}

	for _, c := range appenders {
		wg.Add(1)
		go func(c *appendClient) {
			defer wg.Done()
			w, err := c.fs.Append(ctx, c.path)
			if err != nil {
				errs <- err
				return
			}
			<-start
			for i := 0; i < appChunks; i++ {
				t0 := time.Now()
				if _, err := w.Write(c.data); err != nil {
					errs <- err
					w.Close()
					return
				}
				appendMeter.Record(uint64(len(c.data)), time.Since(t0))
			}
			if err := w.Close(); err != nil {
				errs <- err
			}
		}(c)
	}

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}
