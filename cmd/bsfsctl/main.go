// Command bsfsctl is a small shell over an embedded BSFS deployment:
// it boots a cluster in-process, then executes file-system commands
// from stdin (or a -demo script), printing results. It exists to poke
// at the system interactively:
//
//	echo 'gen /a 100000
//	append /a hello
//	stat /a
//	locate /a
//	ls /' | go run ./cmd/bsfsctl
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"time"

	"blobseer"
	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/flight"
	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
	"blobseer/internal/workload"
)

const usage = `commands:
  gen <path> <bytes>      create <path> with <bytes> of synthetic text
  put <path> <text...>    create <path> containing <text>
  append <path> <text...> append <text> plus newline to <path>
  cat [-ver N] <path>     print file contents (at snapshot N)
  head [-ver N] <path> <n> print first n bytes (at snapshot N)
  stat [-ver N] <path>    show size/blocks (at snapshot N)
  versions <path>         list the file's published snapshots
  ls <dir>                list directory
  mkdir <dir>             create directory
  mv <src> <dst>          rename
  rm <path>               delete
  locate <path>           show block -> host placement
  entries                 namespace metadata entry count
  gcstats                 run a GC pass and print collector counters
  shards                  show ring assignment and per-shard blob/version counts
  stats                   print the process metrics registry (RPC p99s, op latencies, gauges)
  top [-watch [n]]        cluster monitor: per-provider utilization, shard journal lag,
                          mount cache rates (-watch refreshes n times, default 5)
  health                  per-component health (namespace journal, shard pings, collector)
  alerts                  SLO watchdog rule states (needs -flight)
  diag <file.tar.gz>      collect a postmortem bundle: alerts, flight timeline,
                          cluster snapshot, metrics, health (needs -flight for the timeline)
  help                    this text
`

func main() {
	var opts blobseer.Options
	var (
		block = flag.Int("block", 64, "block size in KiB")
		demo  = flag.Bool("demo", false, "run a canned demo script")
	)
	flag.IntVar(&opts.Providers, "providers", 8, "data providers")
	flag.IntVar(&opts.MetaProviders, "meta", 3, "metadata providers")
	flag.StringVar(&opts.JournalDir, "journal", "", "journal directory (empty = in-memory metadata plane)")
	flag.StringVar(&opts.FlightPath, "flight", "", "flight recorder path: persist sampled traces, snapshots and alerts there and arm the SLO watchdog")
	flag.DurationVar(&opts.HealthPingTimeout, "health-ping-timeout", 0, "per-shard /healthz ping timeout (0 = default 2s)")
	shared := blobseer.BindFlags(&opts)
	flag.Parse()
	if err := shared.Apply(); err != nil {
		fatal(err)
	}
	opts.BlockSize = uint64(*block) << 10

	cluster, err := blobseer.NewCluster(opts)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	fs := cluster.Mount("node-000")
	defer fs.Close()
	ctx := context.Background()

	// The shell's mount is the process's one client: expose its cache
	// footprint, pipelining depth, and the metadata plane's journal size
	// as registry gauges so `stats` and /metrics show live state, not
	// just counters.
	bc := fs.BlobClient()
	if pc := bc.PageCache(); pc != nil { // nil under -cachemb off
		metrics.Default.SetGauge("client_cache_bytes", func() float64 { return float64(pc.Bytes()) })
	}
	metrics.Default.SetGauge("client_inflight_writes", func() float64 { return float64(bc.InFlight()) })
	vms := cluster.Blob.VMs
	metrics.Default.SetGauge("vm_journal_records", func() float64 {
		var n uint64
		for _, vm := range vms {
			n += vm.JournalRecords()
		}
		return float64(n)
	})

	stopMetrics, err := shared.ServeMetrics(cluster)
	if err != nil {
		fatal(err)
	}
	defer stopMetrics()

	var in io.Reader = os.Stdin
	if *demo {
		in = strings.NewReader(`gen /data/sample 50000
stat /data/sample
append /data/sample tail record one
append /data/sample tail record two
stat /data/sample
versions /data/sample
head -ver 1 /data/sample 80
ls /data
locate /data/sample
entries
`)
	}

	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Printf("> %s\n", line)
		if line == "gcstats" {
			// Needs the deployment, not just the mount, so it is handled
			// here: run a reclaim pass and print the collector counters.
			if _, err := cluster.FS.GC.RunOnce(ctx); err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			showCounters(metrics.Default.Snapshot().Counters, "gc_")
			continue
		}
		if line == "stats" {
			showStats(metrics.Default.Snapshot())
			continue
		}
		if line == "top" || strings.HasPrefix(line, "top ") {
			if err := showTop(cluster, strings.Fields(line)[1:]); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if line == "health" {
			showHealth(ctx, cluster)
			continue
		}
		if line == "alerts" {
			showAlerts(cluster)
			continue
		}
		if strings.HasPrefix(line, "diag") {
			if err := runDiag(cluster, strings.Fields(line)[1:]); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if line == "shards" {
			// Also deployment-level: walks the version-manager ring with
			// a routed client and queries each shard directly.
			if err := showShards(ctx, cluster); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if err := run(ctx, fs, line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

// showStats pretty-prints the process metrics registry: subsystem
// counters, live gauges, operation latencies, and per-method RPC
// latency quantiles for both wire sides.
func showStats(s metrics.RegistrySnapshot) {
	showCounters(s.Counters, "")
	for _, k := range slices.Sorted(maps.Keys(s.Gauges)) {
		fmt.Printf("gauge    %-28s %g\n", k, s.Gauges[k])
	}
	for _, k := range slices.Sorted(maps.Keys(s.Ops)) {
		q := s.Ops[k]
		fmt.Printf("op       %-28s n=%-6d p50=%.3fms p99=%.3fms max=%.3fms\n",
			k, q.Count, q.P50Ms, q.P99Ms, q.MaxMs)
	}
	sides := []struct {
		name    string
		methods map[string]metrics.MethodSnapshot
	}{{"client", s.RPCClient}, {"server", s.RPCServer}}
	for _, side := range sides {
		for _, k := range slices.Sorted(maps.Keys(side.methods)) {
			m := side.methods[k]
			fmt.Printf("rpc %-6s %-24s calls=%-7d errs=%-4d bytes=%-10d p50=%.3fms p99=%.3fms\n",
				side.name, k, m.Calls, m.Errors, m.Bytes, m.Latency.P50Ms, m.Latency.P99Ms)
		}
	}
}

// showTop renders the cluster monitor's snapshot: per-provider
// utilization bars, per-shard journal lag and client cache state. With
// -watch it refreshes once a second, n times (default 5), so rates
// sharpen across frames.
func showTop(cluster *blobseer.Cluster, args []string) error {
	frames := 1
	if len(args) > 0 {
		if args[0] != "-watch" {
			return fmt.Errorf("usage: top [-watch [n]]")
		}
		frames = 5
		if len(args) > 1 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n <= 0 {
				return fmt.Errorf("usage: top [-watch [n]]")
			}
			frames = n
		}
	}
	mon := cluster.FS.Monitor
	for frame := 0; frame < frames; frame++ {
		if frame > 0 {
			time.Sleep(time.Second)
			fmt.Println()
		}
		mon.CollectOnce()
		renderTop(mon.Snapshot())
	}
	return nil
}

// utilBar renders a 10-cell utilization bar.
func utilBar(u float64) string {
	filled := int(u * 10)
	if filled > 10 {
		filled = 10
	}
	if filled < 0 {
		filled = 0
	}
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", 10-filled) + "]"
}

func renderTop(snap monitor.ClusterSnapshot) {
	fmt.Printf("cluster: collections=%d imbalance=%.2f max-journal-lag=%.0f\n",
		snap.Collections, snap.ReplicaImbalance, snap.MaxJournalLag)
	for _, c := range snap.Components {
		switch c.Kind {
		case monitor.KindProvider:
			fmt.Printf("  prov %-12s %s %5.1f%%  r=%8.0f B/s w=%8.0f B/s pages=%.0f bytes=%.0f\n",
				c.Name, utilBar(c.Utilization), c.Utilization*100,
				c.Rates["read_bytes_per_sec"], c.Rates["write_bytes_per_sec"], c.Gauges["pages"], c.Gauges["bytes_used"])
		case monitor.KindVMShard:
			fmt.Printf("  shard %-11s blobs=%-5.0f pub/s=%-8.2f lag=%.0f journal=%.0fB\n",
				c.Name, c.Gauges["blobs"], c.Rates["published_per_sec"],
				c.Gauges["journal_pending"], c.Gauges["journal_bytes"])
		case monitor.KindNamespace:
			fmt.Printf("  ns    %-11s entries=%.0f\n", c.Name, c.Gauges["entries"])
		case monitor.KindClient:
			fmt.Printf("  mount %-11s cache=%.0fB hit/s=%-8.2f fetch/s=%.2f\n",
				c.Name, c.Gauges["cache_bytes"], c.Rates["cache_hits_per_sec"],
				c.Rates["provider_fetches_per_sec"])
		}
	}
}

// showHealth prints the deployment's per-component health report with
// per-check latency.
func showHealth(ctx context.Context, cluster *blobseer.Cluster) {
	rep := cluster.FS.Health(ctx)
	status := "healthy"
	if !rep.Healthy {
		status = "DEGRADED"
	}
	fmt.Printf("cluster %s\n", status)
	for _, c := range rep.Components {
		mark := "ok"
		if !c.Healthy {
			mark = "FAIL"
		}
		fmt.Printf("  %-4s %-12s %8.3fms", mark, c.Component, c.LatencyMs)
		if c.Detail != "" {
			fmt.Printf("  %s", c.Detail)
		}
		fmt.Println()
	}
}

// showAlerts prints the SLO watchdog's per-rule states.
func showAlerts(cluster *blobseer.Cluster) {
	if cluster.FS.Watchdog == nil {
		fmt.Println("no watchdog armed (start with -flight <path>)")
		return
	}
	alerts := cluster.FS.Watchdog.Alerts()
	if len(alerts) == 0 {
		fmt.Println("no rules evaluated yet (the watchdog evaluates once per second)")
		return
	}
	for _, a := range alerts {
		fmt.Printf("  %-7s %-28s value=%-10.3f limit=%-10.3f breaches=%d fires=%d",
			strings.ToUpper(a.State), a.Rule, a.Value, a.Limit, a.Breaches, a.Fires)
		if a.Detail != "" {
			fmt.Printf("  %s", a.Detail)
		}
		fmt.Println()
	}
}

// runDiag collects the postmortem bundle into a tar.gz.
func runDiag(cluster *blobseer.Cluster, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: diag <file.tar.gz>")
	}
	src := flight.DiagSources{
		Watchdog: cluster.FS.Watchdog,
		Recorder: cluster.FS.Flight,
		Monitor:  cluster.FS.Monitor,
		Health: func() monitor.HealthReport {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return cluster.FS.Health(ctx)
		},
	}
	members, err := flight.WriteDiagFile(args[0], src)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", args[0], strings.Join(members, ", "))
	return nil
}

// showCounters prints the process counters whose names start with
// prefix.
func showCounters(counters map[string]uint64, prefix string) {
	for _, k := range slices.Sorted(maps.Keys(counters)) {
		if strings.HasPrefix(k, prefix) {
			fmt.Printf("counter  %-28s %d\n", k, counters[k])
		}
	}
}

// showShards prints the metadata ring: every version-manager shard,
// the blob ids the ring assigns to it, and its version counters.
func showShards(ctx context.Context, cluster *blobseer.Cluster) error {
	bc := cluster.BlobClient("bsfsctl-shards")
	defer bc.Close()
	router := bc.VMRouter()
	for i, addr := range router.Shards() {
		var st blob.VMStatsResp
		if err := router.CallAddr(ctx, addr, blob.VMStats, nil, &st); err != nil {
			return fmt.Errorf("shard %d stats: %w", i, err)
		}
		var ls blob.ListBlobsResp
		if err := router.CallAddr(ctx, addr, blob.VMListBlobs, nil, &ls); err != nil {
			return fmt.Errorf("shard %d blobs: %w", i, err)
		}
		fmt.Printf("shard %d @ %s: blobs=%d versions=%d published=%d sealed=%d\n",
			i, addr, st.Blobs, st.Assigned, st.Published, st.Sealed)
		if len(ls.Blobs) > 0 {
			fmt.Printf("  ids: %v\n", ls.Blobs)
		}
	}
	return nil
}

// extractVer strips a "-ver N" pair from args (anywhere in the list)
// and returns the remaining args plus the requested snapshot version
// (0 = latest, the default).
func extractVer(args []string) ([]string, uint64, error) {
	out := args[:0:0]
	var ver uint64
	for i := 0; i < len(args); i++ {
		if args[i] != "-ver" {
			out = append(out, args[i])
			continue
		}
		if i+1 >= len(args) {
			return nil, 0, fmt.Errorf("-ver needs a version number")
		}
		n, err := strconv.ParseUint(args[i+1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("-ver %q: %v", args[i+1], err)
		}
		ver = n
		i++
	}
	return out, ver, nil
}

// readAllAt reads the whole file at snapshot ver (0 = latest).
func readAllAt(ctx context.Context, fs dfs.FileSystem, path string, ver uint64) ([]byte, error) {
	if ver == 0 {
		return dfs.ReadAll(ctx, fs, path)
	}
	f, err := dfs.OpenVersion(ctx, fs, path, ver)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := io.ReadFull(f, buf); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf, nil
}

func run(ctx context.Context, fs dfs.FileSystem, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	var ver uint64
	switch cmd {
	case "cat", "head", "stat":
		// Only the read commands take -ver; free-text commands (put,
		// append) must keep a literal "-ver" in their payload.
		var err error
		if args, ver, err = extractVer(args); err != nil {
			return err
		}
	}
	switch cmd {
	case "help":
		fmt.Print(usage)
	case "gen":
		if len(args) != 2 {
			return fmt.Errorf("usage: gen <path> <bytes>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		if err := dfs.WriteFile(ctx, fs, args[0], []byte(workload.Text(n, 42))); err != nil {
			return err
		}
		fmt.Printf("wrote ~%d bytes to %s\n", n, args[0])
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("usage: put <path> <text...>")
		}
		return dfs.WriteFile(ctx, fs, args[0], []byte(strings.Join(args[1:], " ")+"\n"))
	case "append":
		if len(args) < 2 {
			return fmt.Errorf("usage: append <path> <text...>")
		}
		w, err := fs.Append(ctx, args[0])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, strings.Join(args[1:], " ")); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	case "cat", "head":
		if len(args) < 1 {
			return fmt.Errorf("usage: %s [-ver N] <path>", cmd)
		}
		data, err := readAllAt(ctx, fs, args[0], ver)
		if err != nil {
			return err
		}
		if cmd == "head" && len(args) == 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil {
				return err
			}
			if n < len(data) {
				data = data[:n]
			}
		}
		os.Stdout.Write(data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			fmt.Println()
		}
	case "stat":
		if len(args) < 1 {
			return fmt.Errorf("usage: stat [-ver N] <path>")
		}
		if ver != 0 {
			infos, err := dfs.Versions(ctx, fs, args[0])
			if err != nil {
				return err
			}
			for _, vi := range infos {
				if vi.Version == ver {
					fmt.Printf("%s@%d: size=%d blocks=%d\n", args[0], ver, vi.Size, vi.Blocks)
					return nil
				}
			}
			return fmt.Errorf("%s: version %d not retained", args[0], ver)
		}
		fi, err := fs.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: dir=%v size=%d blocks=%d version=%d\n", fi.Path, fi.IsDir, fi.Size, fi.Blocks, fi.Version)
	case "versions":
		if len(args) < 1 {
			return fmt.Errorf("usage: versions <path>")
		}
		infos, err := dfs.Versions(ctx, fs, args[0])
		if err != nil {
			return err
		}
		for _, vi := range infos {
			fmt.Printf("  v%-6d size=%-10d blocks=%d\n", vi.Version, vi.Size, vi.Blocks)
		}
	case "ls":
		dir := "/"
		if len(args) > 0 {
			dir = args[0]
		}
		infos, err := fs.List(ctx, dir)
		if err != nil {
			return err
		}
		for _, fi := range infos {
			kind := "f"
			if fi.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %10d  %s\n", kind, fi.Size, fi.Path)
		}
	case "mkdir":
		return fs.Mkdir(ctx, args[0])
	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("usage: mv <src> <dst>")
		}
		return fs.Rename(ctx, args[0], args[1])
	case "rm":
		return fs.Delete(ctx, args[0])
	case "locate":
		fi, err := fs.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		locs, err := fs.BlockLocations(ctx, args[0], 0, fi.Size)
		if err != nil {
			return err
		}
		for _, l := range locs {
			fmt.Printf("  [%d..%d) -> %v\n", l.Offset, l.Offset+l.Length, l.Hosts)
		}
	case "entries":
		n, err := fs.MetadataEntries(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("namespace entries: %d\n", n)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
