// Package blobseer is a from-scratch Go reproduction of the system
// described in "Improving the Hadoop Map/Reduce Framework to Support
// Concurrent Appends through the BlobSeer BLOB management system"
// (Moise, Antoniu, Bougé — HPDC 2010, MapReduce workshop).
//
// The package is the snapshot-first facade over the building blocks in
// internal/: the BlobSeer versioned BLOB service (internal/blob), the
// BSFS file-system layer (internal/bsfs), an HDFS-like baseline
// (internal/hdfs) and a Hadoop-like Map/Reduce framework
// (internal/mapreduce). Everything a caller needs — including the
// versioned capability interface — is reachable through this package
// alone; callers never import internal paths.
//
// # Quick start
//
//	var opts blobseer.Options // the zero value is a small dev cluster
//	opts.Providers, opts.BlockSize = 8, 64<<10
//	cluster, _ := blobseer.NewCluster(opts)
//	defer cluster.Close()
//	fs := cluster.Mount("node-000") // a VersionedFileSystem
//
// Options declares only FlightPath and Net itself; every other knob is
// a promoted field of the one struct that owns it (blob.ClusterConfig,
// blob.ClientPolicy, bsfs.Tuning, bsfs.DeployConfig), which is why it
// is filled by assignment. The README's Configuration table lists each
// knob's home, default, 0/negative meaning and flag; BindFlags
// registers the shared flags for the three commands.
//
// # The version axis
//
// Every append to a BSFS file publishes an immutable snapshot. The
// facade makes that axis first-class:
//
//   - fs.Stat fills FileInfo.Version, so "Stat then OpenVersion" pins
//     exactly the snapshot whose size was observed;
//   - fs.OpenVersion(ctx, path, ver) opens a fixed snapshot, pinned
//     against garbage collection until the reader closes;
//   - fs.History(ctx, path) enumerates the retained snapshots;
//   - fs.Tail(ctx, path, after) blocks for the next snapshot and opens
//     it — the tailing-reader loop for files concurrent appenders keep
//     growing;
//   - fs.SnapshotAt(ctx, path, ver) descends to a pinned BLOB-level
//     Snapshot handle (byte-offset reads, page views, page locations) —
//     the one implementation of the pin: an OpenVersion reader is a
//     cursor over the same handle.
//
// Capability probing follows the Map/Reduce framework's own pattern:
//
//	if vfs, ok := blobseer.AsVersioned(fs); ok { ... }
//
// with ErrVersionsNotSupported as the stable answer from backends
// without the capability (the HDFS baseline), and ErrVersionGone as
// the stable answer for snapshots the retention policy has collected.
//
// Map/Reduce jobs submitted through Cluster.NewFramework pin each
// input file's snapshot at submit (JobResult.InputVersions), so a
// job's input set is immutable under live appenders — the paper's
// read/append overlap, correct by construction.
//
// # The metadata plane
//
// The paper's single version manager remains the default topology.
// Options.VMShards partitions the metadata plane across N shards
// (BLOB ids consistent-hashed on a fixed ring; every caller routes
// through one shared mapping), and Options.JournalDir makes the plane
// durable: shards and the BSFS namespace write-ahead-journal every
// acknowledged mutation and replay it on restart, so killing a shard
// mid-workload loses no acknowledged writes — clients retry through
// the brief outage while a standby reopens the journal at the same
// address. See the README's "metadata plane" section for the ring
// layout, journal record formats, and failover semantics.
//
// # Observability
//
// Every request path reports into one plane. RPC frames carry a
// two-uvarint trace context, so a traced operation renders as a
// causal span tree across client, version-manager, and provider
// processes (internal/obs); both sides of every RPC record into
// per-method lock-free latency histograms, and the process-wide
// metrics.Default registry unifies those with operation histograms,
// read/GC/shuffle counters, and gauges. All three commands expose it
// over HTTP with -metrics-addr (/metrics Prometheus text,
// /metrics.json, /spans; bsfsctl, whose cluster outlives a command,
// adds /cluster, /healthz, /alerts). Performance across changes is
// compared by the pinned benchmark in benchmark/, not by the
// experiments scenarios, which print their figures as tables.
//
// Options.FlightPath arms the black box on top of that plane: a
// flight recorder (internal/flight) journals tail-sampled span trees
// (slow past the live p99 of their own operation, or containing an
// errored span — always the full causal tree), periodic cluster
// snapshots, health transitions, and alert state changes to a
// bounded on-disk log that replays after a crash. An SLO watchdog
// evaluates rules on every monitor collection (FlightPath arms the
// collector at one pass a second) — journal lag, NIC utilization,
// replica imbalance, component health — with hysteresis on both edges;
// live states serve at /alerts, and `bsfsctl diag` writes the whole
// postmortem bundle (alerts, replayed timeline, cluster snapshot,
// metrics, health) as one tar.gz.
//
// # Static analysis
//
// The invariants the implementation leans on — no blocking call
// while a mutex is held, contexts threaded end to end through the
// RPC surface, no silently discarded errors, injected clocks in
// time-sensitive packages, every started span reaching End, no alias
// of a recycled rpc frame kept past its decode — are machine-checked by the project's own analyzer suite
// (internal/analysis) via `go run ./cmd/bslint ./...`, a hard CI
// gate. Deliberate exceptions are justified in the source with
// per-line `//lint:<analyzer> <reason>` markers.
//
// README.md's "Layout" section is the package inventory;
// cmd/experiments reproduces the paper's evaluation.
package blobseer
