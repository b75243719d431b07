package experiments

import (
	"fmt"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
)

// Figures 4 and 5 share one scenario (§4.2): a shared file, a fixed
// group of one kind of client, a swept group of the other kind, and
// the mean per-operation throughput of the measured group. Readers
// process 10 chunks each from disjoint regions of the preloaded file;
// appenders append their chunks at the tail, each timed as Fig 3 times
// one. Versioning isolates the two completely — that is the claim the
// figures support.

const (
	chunksPerReader   = 10
	chunksPerAppender = 16 // Fig 4 (§4.2: appenders write 16 chunks)
	fixedReaders      = 100
	fixedAppenders    = 100
)

// Fig4 reproduces Figure 4: "Impact of concurrent appends on
// concurrent reads from the same file" — 100 readers, 0..N appenders,
// reporting read throughput.
func Fig4(cfg Config, appenders []int) (*Series, error) {
	series := &Series{
		Name:   "BSFS read",
		XLabel: "appenders",
		YLabel: "mean per-read MB/s",
	}
	err := runMixed(cfg, "fig4", appenders, func(x int) (int, int, int) {
		return fixedReaders, x, chunksPerAppender
	}, func(x int, reads, appends []Sample) {
		series.AddSamples(float64(x), reads)
	})
	return series, err
}

// Fig5 reproduces Figure 5: "Impact of concurrent reads on concurrent
// appends to the same file" — 100 appenders (10 chunks each, like the
// readers, per §4.2), 0..N readers, reporting append throughput.
func Fig5(cfg Config, readers []int) (*Series, error) {
	series := &Series{
		Name:   "BSFS append",
		XLabel: "readers",
		YLabel: "mean per-append MB/s",
	}
	err := runMixed(cfg, "fig5", readers, func(x int) (int, int, int) {
		return x, fixedAppenders, chunksPerReader
	}, func(x int, reads, appends []Sample) {
		series.AddSamples(float64(x), appends)
	})
	return series, err
}

// runMixed drives the shared readers+appenders scenario across sweep
// points. shape maps a sweep value to its readers, appenders and
// chunks per appender; add receives each point's read and append
// samples.
func runMixed(cfg Config, kind string, xs []int, shape func(x int) (int, int, int), add func(x int, reads, appends []Sample)) error {
	cfg = cfg.withDefaults()
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()

	maxR, maxA := 0, 0
	for _, x := range xs {
		r, a, _ := shape(x)
		maxR, maxA = max(maxR, r), max(maxA, a)
	}

	// Shared file, preloaded once so every reader has its disjoint
	// 10-chunk region ("Each client processes disjoint regions of the
	// file", §4.2).
	path := "/bench/" + kind + "/shared"
	if err := preload(env, cfg, path, maxR*chunksPerReader); err != nil {
		return fmt.Errorf("%s preload: %w", kind, err)
	}

	// Mounts are created once and reused across points so client-side
	// history caches stay warm (fresh mounts would re-fetch the whole
	// write history and skew late points).
	readers := make([]*bsfs.FS, maxR)
	for i := range readers {
		readers[i] = env.mount(i)
	}
	appenders := make([]*appendClient, maxA)
	for i := range appenders {
		appenders[i] = &appendClient{fs: env.mount(maxR + i), path: path, data: chunk(cfg, i)}
	}

	for _, x := range xs {
		nR, nA, appChunks := shape(x)
		var readMeter, appendMeter Meter
		for rep := 0; rep < cfg.Reps; rep++ {
			// Readers and appenders start together: each reader reads
			// its region chunk by chunk, each appender appends its
			// chunks at the tail.
			err := fanOut(nR+nA, func(i int) (func() error, error) {
				if i >= nR {
					return appenders[i-nR].open(appChunks, &appendMeter, nil)
				}
				return openReader(cfg, readers[i], path, i, &readMeter)
			})
			if err != nil {
				return fmt.Errorf("%s x=%d: %w", kind, x, err)
			}
		}
		add(x, readMeter.Samples(), appendMeter.Samples())
	}
	return nil
}

// openReader is reader r's untimed setup: it opens the file and
// returns the timed loop, which reads the reader's region chunk by
// chunk, one sample in meter per chunk.
func openReader(cfg Config, fs *bsfs.FS, path string, r int, meter *Meter) (func() error, error) {
	f, err := fs.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return func() error {
		defer f.Close()
		buf := make([]byte, cfg.BlockSize)
		base := uint64(r) * chunksPerReader * cfg.BlockSize
		for c := 0; c < chunksPerReader; c++ {
			off := base + uint64(c)*cfg.BlockSize
			t0 := time.Now()
			if _, err := f.ReadAt(buf, int64(off)); err != nil {
				return fmt.Errorf("reader %d chunk %d: %w", r, c, err)
			}
			meter.Record(cfg.BlockSize, time.Since(t0))
		}
		return nil
	}, nil
}

// preload appends chunks chunks to path through 32 parallel loaders.
func preload(env *bsfsEnv, cfg Config, path string, chunks int) error {
	setup := env.mount(0)
	if err := dfs.WriteFile(ctx, setup, path, nil); err != nil {
		return err
	}
	loaders := min(32, chunks)
	err := fanOut(loaders, func(l int) (func() error, error) {
		w, err := env.mount(l).Append(ctx, path)
		if err != nil {
			return nil, err
		}
		return func() error {
			data := chunk(cfg, l)
			for i := l; i < chunks; i += loaders {
				if _, err := w.Write(data); err != nil {
					w.Close()
					return err
				}
			}
			return w.Close()
		}, nil
	})
	env.closeMounts()
	return err
}
