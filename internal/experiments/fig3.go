package experiments

import (
	"fmt"
	"time"

	"blobseer/internal/dfs"
)

// Fig3 reproduces Figure 3: "Performance of BSFS when concurrent
// clients append data to the same file". For each N in clients, N
// co-located clients each append one chunk to the same shared file,
// cfg.Reps times; the point is the mean per-append throughput.
func Fig3(cfg Config, clients []int) (*Series, error) {
	return fig3(cfg, clients, nil)
}

// fig3 runs Fig 3's sweep with every append gated by gate (see
// fig3Point).
func fig3(cfg Config, clients []int, gate chan struct{}) (*Series, error) {
	cfg = cfg.withDefaults()
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	series := &Series{
		Name:   "BSFS append",
		XLabel: "clients",
		YLabel: "mean per-append MB/s",
	}
	for pi, n := range clients {
		samples, err := fig3Point(env, cfg, pi, n, gate)
		if err != nil {
			return nil, fmt.Errorf("fig3 N=%d: %w", n, err)
		}
		series.AddSamples(float64(n), samples)
		env.closeMounts()
	}
	return series, nil
}

// fig3Point measures one sweep point: n concurrent appenders, one
// chunk each, cfg.Reps repetitions on a fresh file. A nil gate lets
// the appends run concurrently, as BlobSeer's versioning does; a
// one-slot channel serializes them, the global-lock ablation. It is a
// channel, not a mutex, so that a virtual-time run sees the appenders
// queued on it as blocked.
func fig3Point(env *bsfsEnv, cfg Config, point, n int, gate chan struct{}) ([]Sample, error) {
	path := freshPath("fig3", point)
	setup := env.mount(0)
	if err := dfs.WriteFile(ctx, setup, path, nil); err != nil {
		return nil, err
	}

	clients := make([]*appendClient, n)
	for i := range clients {
		clients[i] = &appendClient{fs: env.mount(i), path: path, data: chunk(cfg, i)}
	}

	var meter Meter
	for rep := 0; rep < cfg.Reps; rep++ {
		err := fanOut(n, func(i int) (func() error, error) {
			return clients[i].open(1, &meter, gate)
		})
		if err != nil {
			return nil, err
		}
	}
	return meter.Samples(), nil
}

// appendClient is one benchmark appender bound to a mount.
type appendClient struct {
	fs   dfs.FileSystem
	path string
	data []byte
}

// open is the client's untimed setup: it opens a writer on the file
// and returns the timed loop, which appends the client's chunk chunks
// times and then closes the writer (untimed publish wait). Each append
// is one sample in meter, timed as Write plus a pipeline drain, so that
// it ends when the version manager acknowledges completion. With a
// gate the sample includes the wait for it: queueing delay is the cost
// of a serialized design.
func (c *appendClient) open(chunks int, meter *Meter, gate chan struct{}) (func() error, error) {
	w, err := c.fs.Append(ctx, c.path)
	if err != nil {
		return nil, err
	}
	return func() error {
		for i := 0; i < chunks; i++ {
			t0 := time.Now()
			if gate != nil {
				gate <- struct{}{}
			}
			_, err := w.Write(c.data) // exactly one block: one append
			if f, ok := w.(dfs.Flusher); ok && err == nil {
				err = f.Flush()
			}
			if gate != nil {
				<-gate
			}
			d := time.Since(t0)
			if err != nil {
				w.Close()
				return err
			}
			meter.Record(uint64(len(c.data)), d)
		}
		return w.Close()
	}, nil
}
