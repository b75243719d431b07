package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPairMergerMatchesFullSort checks the streaming k-way merge
// against the reference it replaced: sorting the concatenation.
func TestPairMergerMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		runs := make([]run, rng.Intn(6))
		var all []refPair
		for i := range runs {
			var pairs []refPair
			for k, n := 0, rng.Intn(20); k < n; k++ {
				pairs = append(pairs, refPair{
					k: fmt.Sprintf("k%02d", rng.Intn(8)),
					v: fmt.Sprintf("v%02d", rng.Intn(10)),
				})
			}
			all = append(all, pairs...)
			refSort(pairs)
			runs[i] = mustOpenRun(t, refEncode(pairs))
		}
		refSort(all)
		if got := drain(newPairMerger(runs)); !slices.Equal(got, all) {
			t.Fatalf("trial %d: merged %q, want %q", trial, got, all)
		}
	}
}

func TestPairMergerEmpty(t *testing.T) {
	if _, _, ok := newPairMerger(nil).next(); ok {
		t.Fatal("empty merger produced a pair")
	}
	empty := mustOpenRun(t, refEncode(nil))
	if _, _, ok := newPairMerger([]run{empty, empty, empty}).next(); ok {
		t.Fatal("all-empty-runs merger produced a pair")
	}
}
