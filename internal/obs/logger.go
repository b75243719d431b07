// Package obs is the observability plane: a leveled logger, lightweight
// causal spans with a ring-buffer collector, and the HTTP export
// endpoint serving the unified metrics registry.
//
// Spans and the logger share one stream of operational truth: a span
// crossing the slow-op threshold logs through the same Logger that
// error paths use, so "what was slow" and "what failed" land in one
// place. The rpc layer propagates span identity across the wire (see
// wire.TraceContext), which is what lets one traced append be rendered
// as a causal tree spanning client, version manager, providers, and
// the metadata DHT.
package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int32(l))
	}
}

// ParseLevel maps a flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelWarn, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// Logger is a minimal leveled logger. Every internal subsystem routes
// its operational events (swallowed errors, failovers, slow ops)
// through one Logger so nothing is silently dropped; tests stay quiet
// because the default level is Warn and the benchmarks' transient
// failover noise logs at Debug/Info.
type Logger struct {
	level atomic.Int32
	mu    sync.Mutex
	w     io.Writer
}

// NewLogger returns a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

// Log is the process-wide logger (stderr, Warn).
var Log = NewLogger(os.Stderr, LevelWarn)

// SetLevel changes the minimum emitted severity.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Enabled reports whether level would be emitted.
func (l *Logger) Enabled(level Level) bool { return int32(level) >= l.level.Load() }

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	line := fmt.Sprintf("%s %-5s %s\n", time.Now().Format("15:04:05.000"), level, msg)
	l.mu.Lock()
	//lint:droppederr logging the log writer's own failure would recurse into logf; there is no better fallback than dropping the line
	_, _ = io.WriteString(l.w, line)
	l.mu.Unlock()
}

// Debugf logs at Debug level.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args...) }

// Infof logs at Info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at Warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at Error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }
