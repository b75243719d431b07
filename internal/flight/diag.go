package flight

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
)

// DiagSources are the pieces a postmortem bundle is collected from.
// Every field is optional: the bundle includes whatever is wired and
// notes what was not.
type DiagSources struct {
	// Watchdog supplies alerts.json.
	Watchdog *Watchdog
	// Recorder supplies the replayed flight log (events.json) and the
	// rendered timeline (timeline.txt).
	Recorder *Recorder
	// Monitor supplies cluster.json (a fresh CollectOnce + Snapshot).
	Monitor *monitor.Monitor
	// Registry supplies metrics.json (default metrics.Default).
	Registry *metrics.Registry
	// Health, when set, is run for health.json.
	Health func() monitor.HealthReport
	// Now stamps bundle members (default time.Now); tests override it
	// for reproducible archives.
	Now func() time.Time
}

// WriteDiagBundle collects a postmortem bundle — alerts, flight
// timeline, raw events, cluster snapshot, metrics dump, health report —
// into a tar.gz stream: the `bsfsctl diag` payload and the CI
// failure artifact. Returns the bundle's member names.
func WriteDiagBundle(w io.Writer, src DiagSources) ([]string, error) {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	clock := src.Now
	if clock == nil {
		clock = time.Now
	}
	now := clock()
	var members []string

	add := func(name string, data []byte) error {
		members = append(members, name)
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	addJSON := func(name string, v any) error {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("diag %s: %w", name, err)
		}
		return add(name, append(buf, '\n'))
	}

	var missing []string
	if src.Watchdog != nil {
		if err := addJSON("alerts.json", src.Watchdog.Alerts()); err != nil {
			return members, err
		}
	} else {
		missing = append(missing, "alerts.json (no watchdog)")
	}
	if src.Recorder != nil {
		events, err := src.Recorder.Replay()
		if err != nil {
			return members, fmt.Errorf("diag replay: %w", err)
		}
		if err := addJSON("events.json", events); err != nil {
			return members, err
		}
		if err := add("timeline.txt", []byte(FormatTimeline(events))); err != nil {
			return members, err
		}
	} else {
		missing = append(missing, "events.json (no recorder)", "timeline.txt (no recorder)")
	}
	if src.Monitor != nil {
		src.Monitor.CollectOnce()
		if err := addJSON("cluster.json", src.Monitor.Snapshot()); err != nil {
			return members, err
		}
	} else {
		missing = append(missing, "cluster.json (no monitor)")
	}
	reg := src.Registry
	if reg == nil {
		reg = metrics.Default
	}
	if err := addJSON("metrics.json", reg.Snapshot()); err != nil {
		return members, err
	}
	if src.Health != nil {
		if err := addJSON("health.json", src.Health()); err != nil {
			return members, err
		}
	} else {
		missing = append(missing, "health.json (no health check)")
	}
	if len(missing) > 0 {
		var b bytes.Buffer
		for _, m := range missing {
			fmt.Fprintln(&b, m)
		}
		if err := add("MISSING.txt", b.Bytes()); err != nil {
			return members, err
		}
	}

	if err := tw.Close(); err != nil {
		return members, err
	}
	return members, gz.Close()
}

// WriteDiagFile is WriteDiagBundle into a file at path.
func WriteDiagFile(path string, src DiagSources) ([]string, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	members, werr := WriteDiagBundle(f, src)
	cerr := f.Close()
	if werr != nil {
		return members, werr
	}
	return members, cerr
}
