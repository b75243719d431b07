package mapreduce_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"blobseer/internal/apps/wordcount"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/workload"
)

// TestReducePhaseTrackerFailure kills a tracker after the map phase
// has completed, while reducers are shuffling/reducing: the framework
// must re-execute the lost map outputs (the "map output lost" path)
// and the failed reduce attempts, and still produce a correct result.
func TestReducePhaseTrackerFailure(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(30<<10, 31)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 3, mapreduce.SeparateFiles)
	// Fast maps, slow reducers: the kill lands in the reduce phase.
	job.ReduceCostPerRecord = 300 * time.Microsecond

	go func() {
		time.Sleep(250 * time.Millisecond)
		e.fw.Trackers()[1].Kill()
	}()
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatalf("job failed despite re-execution: %v", err)
	}
	checkWordcount(t, e, res, text)
}

// TestTwoTrackerFailures kills two of six trackers at different times.
func TestTwoTrackerFailures(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(25<<10, 37)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 2, mapreduce.SeparateFiles)
	job.MapCostPerRecord = 30 * time.Microsecond

	go func() {
		time.Sleep(100 * time.Millisecond)
		e.fw.Trackers()[0].Kill()
		time.Sleep(150 * time.Millisecond)
		e.fw.Trackers()[3].Kill()
	}()
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	checkWordcount(t, e, res, text)
}

// TestAllTrackersDeadFailsCleanly verifies the job reports an error
// (rather than hanging) when every tracker dies.
func TestAllTrackersDeadFailsCleanly(t *testing.T) {
	e := newBSFSEnv(t, 3)
	text := workload.Text(20<<10, 41)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 2, mapreduce.SeparateFiles)
	// Slow the maps down enough that the kill always lands mid-job.
	job.MapCostPerRecord = 3 * time.Millisecond
	job.MaxAttempts = 2

	go func() {
		time.Sleep(100 * time.Millisecond)
		for _, tt := range e.fw.Trackers() {
			tt.Kill()
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := e.fw.Run(ctx, job)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job succeeded with all trackers dead")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job hung after cluster death")
	}
}

// TestFailingTaskExhaustsAttempts: a map function that always panics
// is converted into task failure and the job errors out after
// MaxAttempts, not forever.
func TestPoisonousInputRecords(t *testing.T) {
	e := newBSFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/x", []byte("fine\nfine\n")); err != nil {
		t.Fatal(err)
	}
	job := mapreduce.JobConf{
		Name:      "poison",
		Input:     []string{"/in/x"},
		OutputDir: "/out",
		Map: func(k, v []byte, out *mapreduce.Emitter) {
			out.Emit(bytes.ToUpper(v), []byte("1"))
		},
		Reduce: func(k []byte, vs [][]byte, out *mapreduce.Emitter) {
			out.Emit(k, []byte("ok"))
		},
		NumReducers: 1,
		OutputMode:  mapreduce.SeparateFiles,
	}
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	out := readOutputs(t, e.fs, res)
	if !strings.Contains(out, "FINE\tok") {
		t.Fatalf("output = %q", out)
	}
}
