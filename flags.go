package blobseer

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/obshttp"
)

// Flags are the command-line flags bsfsctl, mrrun and experiments
// share: the storage knobs of Options and the observability plane's
// three. They are registered here and nowhere else, so a flag means the
// same thing, with the same help, on every command.
type Flags struct {
	opts *Options

	depth, readDepth, vmShards *int
	retain                     *uint64
	logLevel, metricsAddr      *string
	slowMs                     *float64
}

// BindFlags registers the shared flags on the process's command line.
// The flags' defaults are the library's, except -cachemb, whose default
// is whatever o.CacheBytes holds at the call (experiments presets it to
// off). Call Apply after flag.Parse.
func BindFlags(o *Options) *Flags {
	cacheDefault := "off"
	if o.CacheBytes >= 0 {
		cacheDefault = strconv.FormatInt(o.CacheBytes>>20, 10)
	}
	flag.Func("cachemb", "BSFS page cache budget in MiB per mount: 0 = the library default, negative or \"off\" = no cache (default "+cacheDefault+")",
		func(s string) error {
			mb, err := strconv.Atoi(s)
			switch {
			case s == "off" || (err == nil && mb < 0):
				o.CacheBytes = -1
			case err != nil:
				return err
			default:
				o.CacheBytes = int64(mb) << 20
			}
			return nil
		})
	return &Flags{
		opts:        o,
		depth:       flag.Int("depth", 0, "BSFS writer pipeline depth (blocks in flight per writer; 0 = default, 1 = synchronous)"),
		readDepth:   flag.Int("readdepth", 0, "BSFS reader readahead depth (blocks in flight ahead of a reader; 0 = default, negative = off; ignored when the page cache is off, because readahead stages pages through it)"),
		retain:      flag.Uint64("retain", 0, "default RetainLatest GC policy (0 = keep every version)"),
		vmShards:    flag.Int("vm-shards", 1, "version-manager shards (metadata plane partitions)"),
		logLevel:    flag.String("log-level", "", "obs log level: debug|info|warn|error (default warn)"),
		slowMs:      flag.Float64("slow-ms", 0, "slow-span threshold in ms: a span ending at or past it logs a warning (0 = off; the flight tail sampler keeps its own 50 ms floor)"),
		metricsAddr: flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /spans (and, given a cluster, /cluster, /healthz and /alerts) on this address while the command runs (e.g. 127.0.0.1:9090)"),
	}
}

// Apply stores the parsed storage flags in the bound Options and
// applies -log-level and -slow-ms to the process-wide observability
// plane. It says so on stderr when a requested -readdepth cannot take
// effect.
func (f *Flags) Apply() error {
	o := f.opts
	o.WriteDepth, o.ReadDepth, o.VMShards = *f.depth, *f.readDepth, *f.vmShards
	o.Retain = *f.retain
	if o.ReadDepth > 0 && o.CacheBytes < 0 {
		fmt.Fprintf(os.Stderr, "[-readdepth %d ignored: the page cache is off (-cachemb) and readahead stages pages through it]\n", o.ReadDepth)
	}
	if *f.logLevel != "" {
		lv, err := obs.ParseLevel(*f.logLevel)
		if err != nil {
			return err
		}
		obs.Log.SetLevel(lv)
	}
	if *f.slowMs > 0 {
		obs.Spans.SetSlowThreshold(time.Duration(*f.slowMs * float64(time.Millisecond)))
	}
	return nil
}

// ServeMetrics starts the -metrics-addr endpoint over the process-wide
// registry and span collector, plus c's monitor, health report and
// alerts when c is not nil. Without the flag it does nothing; either
// way call stop when done.
func (f *Flags) ServeMetrics(c *Cluster) (stop func(), err error) {
	if *f.metricsAddr == "" {
		return func() {}, nil
	}
	var opts obshttp.Options
	if c != nil {
		opts.Monitor, opts.Health = c.FS.Monitor, c.FS.Health
		if c.FS.Watchdog != nil {
			opts.Alerts = c.FS.Watchdog.Alerts
		}
	}
	ms, err := obshttp.Serve(*f.metricsAddr, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("[metrics endpoint on http://%s/metrics]\n", ms.Addr())
	return func() { ms.Close() }, nil
}
