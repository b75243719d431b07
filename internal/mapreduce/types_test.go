package mapreduce

import (
	"slices"
	"testing"
	"time"
)

func TestOutputModeString(t *testing.T) {
	if SeparateFiles.String() != "separate-files" {
		t.Errorf("SeparateFiles = %q", SeparateFiles.String())
	}
	if SharedAppend.String() != "shared-append" {
		t.Errorf("SharedAppend = %q", SharedAppend.String())
	}
	if OutputMode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestCostModelBatchesSleeps(t *testing.T) {
	c := costModel{perRecord: 100 * time.Microsecond}
	start := time.Now()
	for i := 0; i < costBatch*2; i++ {
		c.tick()
	}
	c.flush()
	elapsed := time.Since(start)
	want := time.Duration(costBatch*2) * 100 * time.Microsecond
	if elapsed < want {
		t.Errorf("modeled %v of cost in %v", want, elapsed)
	}
	if elapsed > want*3 {
		t.Errorf("cost model overshot: %v for %v nominal", elapsed, want)
	}
}

func TestCostModelZeroIsFree(t *testing.T) {
	c := costModel{}
	start := time.Now()
	for i := 0; i < 10000; i++ {
		c.tick()
	}
	c.flush()
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("zero-cost model slept %v", elapsed)
	}
}

func TestSortPairsStableOrder(t *testing.T) {
	b := bufferOf(refPair{"b", "2"}, refPair{"a", "9"}, refPair{"b", "1"}, refPair{"a", "1"}, refPair{"a", ""}, refPair{"", "z"})
	b.sort()
	want := []refPair{{"", "z"}, {"a", ""}, {"a", "1"}, {"a", "9"}, {"b", "1"}, {"b", "2"}}
	if got := b.pairs(); !slices.Equal(got, want) {
		t.Fatalf("sorted = %q, want %q", got, want)
	}
}
