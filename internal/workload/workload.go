// Package workload generates the synthetic datasets of the evaluation.
// The paper's data-join inputs are "key-value pairs extracted from the
// datasets made public by Last.fm" (§4.3): two files of user/artist
// listening records whose join blows up by roughly 10x (two 320 MB
// inputs produce 6.3 GB of output). The generators here are
// deterministic (seeded) and tunable to the same expansion factor.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// JoinConfig shapes a pair of join input files.
type JoinConfig struct {
	// Keys is the number of distinct join keys (user ids).
	Keys int
	// DupA and DupB are how many records each key has in file A and
	// file B. The join expands each key into DupA*DupB rows, so the
	// output/input row ratio is DupA*DupB/(DupA+DupB) — the defaults
	// (8, 8) give ~4x rows and, with the wider 3-column output lines,
	// roughly the paper's ~10x byte expansion.
	DupA, DupB int
	// ValueLen is the approximate value length in bytes.
	ValueLen int
	// Seed makes generation deterministic.
	Seed int64
}

// withDefaults fills zero fields.
func (c JoinConfig) withDefaults() JoinConfig {
	if c.Keys <= 0 {
		c.Keys = 1000
	}
	if c.DupA <= 0 {
		c.DupA = 8
	}
	if c.DupB <= 0 {
		c.DupB = 8
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 24
	}
	return c
}

// artists is a small vocabulary for Last.fm-shaped values.
var artists = []string{
	"radiohead", "boards-of-canada", "autechre", "nina-simone",
	"kraftwerk", "miles-davis", "aphex-twin", "portishead",
	"massive-attack", "john-coltrane", "can", "neu", "stereolab",
	"broadcast", "brian-eno", "fela-kuti", "tortoise", "mogwai",
}

// JoinInputs generates the two data-join input files. Each line is
// "key<TAB>value"; keys are shared between files so the join matches.
func JoinInputs(cfg JoinConfig) (fileA, fileB string) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var a, b strings.Builder
	for k := 0; k < cfg.Keys; k++ {
		key := fmt.Sprintf("user%06d", k)
		for i := 0; i < cfg.DupA; i++ {
			fmt.Fprintf(&a, "%s\t%s\n", key, value(rng, "plays", cfg.ValueLen))
		}
		for i := 0; i < cfg.DupB; i++ {
			fmt.Fprintf(&b, "%s\t%s\n", key, value(rng, "tags", cfg.ValueLen))
		}
	}
	return a.String(), b.String()
}

// value builds one Last.fm-shaped record value of ~n bytes.
func value(rng *rand.Rand, kind string, n int) string {
	artist := artists[rng.Intn(len(artists))]
	v := fmt.Sprintf("%s=%s:%d", kind, artist, rng.Intn(10000))
	for len(v) < n {
		v += fmt.Sprintf(",%s:%d", artists[rng.Intn(len(artists))], rng.Intn(10000))
	}
	return v
}

// Text generates ~n bytes of whitespace-separated words with a skewed
// (Zipf-ish) word distribution, for wordcount/grep workloads.
func Text(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(vocabulary)-1))
	var b strings.Builder
	b.Grow(n + 16)
	for b.Len() < n {
		b.WriteString(vocabulary[zipf.Uint64()])
		if rng.Intn(12) == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

var vocabulary = []string{
	"the", "of", "and", "to", "data", "append", "file", "system",
	"map", "reduce", "hadoop", "blob", "version", "page", "provider",
	"concurrent", "throughput", "cluster", "storage", "metadata",
	"grid", "node", "client", "write", "read", "chunk", "block",
	"pipeline", "reducer", "mapper", "scheduler", "namespace",
}
