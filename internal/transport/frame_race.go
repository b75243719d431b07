//go:build race

package transport

// Race builds are the use-after-release job: every released buffer is
// poisoned, so a stale alias reads 0xDB (and the reuse itself is a
// reported race).
func init() { poisonReleased.Store(true) }
