package blobseer

import (
	"context"
	"flag"
	"log/slog"
	"testing"
)

// TestLogLevelFlag checks that -log-level sets the level of slog's
// default handler and that a value slog does not name fails Apply.
func TestLogLevelFlag(t *testing.T) {
	defer func(old *flag.FlagSet) { flag.CommandLine = old }(flag.CommandLine)
	defer slog.SetLogLoggerLevel(slog.SetLogLoggerLevel(slog.LevelWarn))
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(&Options{})
	apply := func(level string) error {
		if err := flag.CommandLine.Parse([]string{"-log-level", level}); err != nil {
			t.Fatal(err)
		}
		return f.Apply()
	}

	ctx := context.Background()
	for _, tc := range []struct {
		in   string
		want slog.Level
	}{
		{"debug", slog.LevelDebug},
		{"info", slog.LevelInfo},
		{"warn", slog.LevelWarn},
		{"error", slog.LevelError},
	} {
		if err := apply(tc.in); err != nil {
			t.Fatalf("-log-level %s: %v", tc.in, err)
		}
		if l := slog.Default(); !l.Enabled(ctx, tc.want) || l.Enabled(ctx, tc.want-1) {
			t.Errorf("-log-level %s: the default handler does not log from %v up", tc.in, tc.want)
		}
	}
	for _, bad := range []string{"warning", "loud"} {
		if err := apply(bad); err == nil {
			t.Errorf("-log-level %s: Apply accepted it", bad)
		}
	}
}
