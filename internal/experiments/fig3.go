package experiments

import (
	"fmt"
	"sync"
	"time"

	"blobseer/internal/dfs"
)

// Fig3 reproduces Figure 3: "Performance of BSFS when concurrent
// clients append data to the same file". For each N in clients, N
// co-located clients each append one chunk to the same shared file,
// cfg.Reps times; the point is the mean per-client append throughput.
func Fig3(cfg Config, clients []int) (*Series, error) {
	cfg = cfg.withDefaults()
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	series := &Series{
		Name:   "BSFS append",
		XLabel: "clients",
		YLabel: "avg throughput (MB/s)",
	}
	for pi, n := range clients {
		sum, err := fig3Point(env, cfg, pi, n)
		if err != nil {
			return nil, fmt.Errorf("fig3 N=%d: %w", n, err)
		}
		series.Add(float64(n), sum.MeanMBps, (sum.P95MBps-sum.P5MBps)/2)
		env.closeMounts()
	}
	return series, nil
}

// fig3Point measures one sweep point: n concurrent appenders, one
// chunk each, cfg.Reps repetitions on a fresh file.
func fig3Point(env *bsfsEnv, cfg Config, point, n int) (Summary, error) {
	path := freshPath("fig3", point)
	setup := env.mount(0)
	if err := dfs.WriteFile(ctx, setup, path, nil); err != nil {
		return Summary{}, err
	}

	mounts := make([]*appendClient, n)
	for i := range mounts {
		mounts[i] = &appendClient{fs: env.mount(i), path: path, data: chunk(cfg, i)}
	}

	var meter Meter
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := runAppenders(mounts, &meter, nil); err != nil {
			return Summary{}, err
		}
	}
	return Summarize(meter.Samples()), nil
}

// appendClient is one benchmark appender bound to a mount.
type appendClient struct {
	fs   dfs.FileSystem
	path string
	data []byte
}

// runAppenders starts every client simultaneously; each appends its
// chunk once (timed: Write plus a pipeline drain, i.e. until the
// version manager acknowledges completion) and then closes (untimed
// publish wait). A non-nil gate serializes appends — the global-lock
// ablation.
func runAppenders(clients []*appendClient, meter *Meter, gate *sync.Mutex) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	start := make(chan struct{})
	for _, c := range clients {
		wg.Add(1)
		go func(c *appendClient) {
			defer wg.Done()
			w, err := c.fs.Append(ctx, c.path)
			if err != nil {
				errs <- err
				return
			}
			<-start
			// The timed section includes lock wait when a gate is set:
			// queueing delay IS the cost of a serialized design.
			t0 := time.Now()
			if gate != nil {
				gate.Lock()
			}
			_, werr := w.Write(c.data) // exactly one block: one append
			if werr == nil {
				if f, ok := w.(dfs.Flusher); ok {
					// Drain the writer pipeline so the timed section
					// still ends at completion acknowledgement.
					werr = f.Flush()
				}
			}
			if gate != nil {
				gate.Unlock()
			}
			d := time.Since(t0)
			if werr != nil {
				errs <- werr
				w.Close()
				return
			}
			meter.Record(uint64(len(c.data)), d)
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
