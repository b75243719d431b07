package mapreduce_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/apps/grep"
	"blobseer/internal/apps/wordcount"
	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

var ctx = context.Background()

const testBlock = 1 << 10 // 1 KiB blocks so small inputs span many splits

// env is a running storage + framework deployment for tests.
type env struct {
	fw *mapreduce.Framework
	fs dfs.FileSystem
}

// newBSFSEnv deploys BlobSeer + BSFS + the framework on n hosts.
func newBSFSEnv(t *testing.T, hosts int) *env {
	t.Helper()
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers: hosts, MetaProviders: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: testBlock}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   cluster.Net,
		Hosts: cluster.ProviderHosts(),
		Mount: func(host string) dfs.FileSystem { return d.Mount(host) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	return &env{fw: fw, fs: fw.ClientFS()}
}

// newHDFSEnv deploys HDFS + the framework on n hosts.
func newHDFSEnv(t *testing.T, hosts int) *env {
	t.Helper()
	cluster, err := hdfs.NewCluster(transport.NewMemNet(), hdfs.ClusterConfig{Datanodes: hosts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   cluster.Net,
		Hosts: cluster.DatanodeHosts(),
		Mount: func(host string) dfs.FileSystem { return cluster.Mount(host, testBlock) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	return &env{fw: fw, fs: fw.ClientFS()}
}

// readOutputs concatenates all committed output files.
func readOutputs(t *testing.T, fs dfs.FileSystem, res mapreduce.JobResult) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range res.OutputFiles {
		data, err := dfs.ReadAll(ctx, fs, p)
		if err != nil {
			t.Fatalf("read output %s: %v", p, err)
		}
		sb.Write(data)
	}
	return sb.String()
}

// parseCounts parses "word\tcount" lines.
func parseCounts(t *testing.T, out string) map[string]int {
	t.Helper()
	m := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed output line %q", line)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad count in %q", line)
		}
		m[k] += n
	}
	return m
}

func checkWordcount(t *testing.T, e *env, res mapreduce.JobResult, text string) {
	t.Helper()
	got := parseCounts(t, readOutputs(t, e.fs, res))
	want := wordcount.ReferenceCount(text)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

func TestWordcountBSFSSeparateFiles(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(20<<10, 1)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 4, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) != 4 {
		t.Errorf("output files = %v, want 4 part files", res.OutputFiles)
	}
	if res.MapTasks < 10 {
		t.Errorf("MapTasks = %d, want many (block-sized splits)", res.MapTasks)
	}
	checkWordcount(t, e, res, text)
}

func TestWordcountBSFSSharedAppend(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(20<<10, 2)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 4, mapreduce.SharedAppend))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline property: one single output file.
	if len(res.OutputFiles) != 1 {
		t.Fatalf("output files = %v, want exactly 1", res.OutputFiles)
	}
	if dfs.Base(res.OutputFiles[0]) != mapreduce.SharedOutputName {
		t.Errorf("output file = %s", res.OutputFiles[0])
	}
	checkWordcount(t, e, res, text)
}

func TestWordcountHDFS(t *testing.T) {
	e := newHDFSEnv(t, 6)
	text := workload.Text(20<<10, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 4, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) != 4 {
		t.Errorf("output files = %v", res.OutputFiles)
	}
	checkWordcount(t, e, res, text)
}

func TestSharedAppendFailsOnHDFS(t *testing.T) {
	// §2.2: HDFS cannot append, so the modified framework cannot run
	// on it — the reproduction of the paper's motivation.
	e := newHDFSEnv(t, 4)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte("a b c\n")); err != nil {
		t.Fatal(err)
	}
	_, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 2, mapreduce.SharedAppend))
	if !errors.Is(err, dfs.ErrAppendNotSupported) {
		t.Fatalf("err = %v, want ErrAppendNotSupported", err)
	}
}

func TestDataJoin(t *testing.T) {
	contentA, contentB := workload.JoinInputs(workload.JoinConfig{Keys: 60, DupA: 3, DupB: 4, Seed: 5})
	want := datajoin.ReferenceJoin(contentA, contentB)

	cases := []struct {
		name string
		mk   func(t *testing.T) *env
		mode mapreduce.OutputMode
	}{
		{"bsfs-shared", func(t *testing.T) *env { return newBSFSEnv(t, 5) }, mapreduce.SharedAppend},
		{"bsfs-separate", func(t *testing.T) *env { return newBSFSEnv(t, 5) }, mapreduce.SeparateFiles},
		{"hdfs-separate", func(t *testing.T) *env { return newHDFSEnv(t, 5) }, mapreduce.SeparateFiles},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk(t)
			if err := dfs.WriteFile(ctx, e.fs, "/in/a", []byte(contentA)); err != nil {
				t.Fatal(err)
			}
			if err := dfs.WriteFile(ctx, e.fs, "/in/b", []byte(contentB)); err != nil {
				t.Fatal(err)
			}
			res, err := e.fw.Run(ctx, datajoin.Job("/in/a", "/in/b", "/out", 3, tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, line := range strings.Split(readOutputs(t, e.fs, res), "\n") {
				if line != "" {
					got[line]++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("distinct rows: got %d, want %d", len(got), len(want))
			}
			for row, n := range want {
				if got[row] != n {
					t.Fatalf("row %q appears %d times, want %d", row, got[row], n)
				}
			}
			if tc.mode == mapreduce.SharedAppend && len(res.OutputFiles) != 1 {
				t.Errorf("shared-append output files = %v", res.OutputFiles)
			}
			if tc.mode == mapreduce.SeparateFiles && len(res.OutputFiles) != 3 {
				t.Errorf("separate-files output files = %v", res.OutputFiles)
			}
		})
	}
}

func TestLocalityScheduling(t *testing.T) {
	e := newBSFSEnv(t, 8)
	text := workload.Text(40<<10, 9)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 2, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	// With tasktrackers on every storage host and free slots, the
	// locality pass should place most maps on a replica host.
	if res.LocalMaps*2 < res.MapTasks {
		t.Errorf("local maps = %d of %d", res.LocalMaps, res.MapTasks)
	}
}

func TestOutputDirExistsFails(t *testing.T) {
	e := newBSFSEnv(t, 3)
	if err := e.fs.Mkdir(ctx, "/out"); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	_, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/text"}, "/out", 1, mapreduce.SeparateFiles))
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	e := newBSFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/empty", nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/empty"}, "/out", 2, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 0 || res.ReduceOutputRecords != 0 {
		t.Errorf("result = %+v", res)
	}
	if len(res.OutputFiles) != 2 {
		t.Errorf("output files = %v (want 2 empty parts)", res.OutputFiles)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	text := workload.Text(30<<10, 11)

	run := func(withCombiner bool) mapreduce.JobResult {
		e := newBSFSEnv(t, 4)
		if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
			t.Fatal(err)
		}
		job := wordcount.Job([]string{"/in/text"}, "/out", 2, mapreduce.SeparateFiles)
		if !withCombiner {
			job.Combine = nil
		}
		res, err := e.fw.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	with := run(true)
	without := run(false)
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d vs %d", with.ShuffleBytes, without.ShuffleBytes)
	}
	if with.ReduceOutputRecords != without.ReduceOutputRecords {
		t.Errorf("combiner changed output: %d vs %d records",
			with.ReduceOutputRecords, without.ReduceOutputRecords)
	}
}

func TestTaskTrackerFailureRecovery(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(30<<10, 13)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 3, mapreduce.SeparateFiles)
	// Slow the maps down so the kill lands mid-job.
	job.MapCostPerRecord = 40 * time.Microsecond

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(150 * time.Millisecond)
		e.fw.Trackers()[0].Kill()
	}()
	res, err := e.fw.Run(ctx, job)
	<-killed
	if err != nil {
		t.Fatalf("job failed despite re-execution: %v", err)
	}
	checkWordcount(t, e, res, text)
}

func TestPipelineTwoStages(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(20<<10, 17)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}

	// Stage 1: wordcount (shared single file); stage 2: grep the
	// counts for a common word prefix.
	stage1 := wordcount.Job([]string{"/in/text"}, "/s1", 3, mapreduce.SharedAppend)
	stage2 := grep.Job(nil, "/s2", "data", 2, mapreduce.SharedAppend)
	results, err := e.fw.RunPipeline(ctx, []mapreduce.JobConf{stage1, stage2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}

	// Reference: apply stage 2's predicate to stage 1's actual output.
	wcOut := parseCounts(t, readOutputs(t, e.fs, results[0]))
	wantMatches := 0
	for w := range wcOut {
		if strings.Contains(fmt.Sprintf("%s\t%d", w, wcOut[w]), "data") {
			wantMatches++
		}
	}
	// Grep output lines are "<matched line>\t<count>"; the matched line
	// itself contains tabs, so split on the LAST tab.
	got := map[string]int{}
	for _, line := range strings.Split(readOutputs(t, e.fs, results[1]), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, '\t')
		if i < 0 {
			t.Fatalf("malformed grep output %q", line)
		}
		n, err := strconv.Atoi(line[i+1:])
		if err != nil {
			t.Fatalf("bad count in %q", line)
		}
		got[line[:i]] += n
	}
	if len(got) != wantMatches {
		t.Errorf("stage 2 matched %d lines, want %d", len(got), wantMatches)
	}
	// Every matched line occurred exactly once in stage 1's output.
	for line, n := range got {
		if n != 1 {
			t.Errorf("line %q counted %d times", line, n)
		}
	}
}

func TestPipelineRequiresSharedAppend(t *testing.T) {
	e := newBSFSEnv(t, 3)
	s1 := wordcount.Job([]string{"/in"}, "/s1", 1, mapreduce.SeparateFiles)
	s2 := wordcount.Job(nil, "/s2", 1, mapreduce.SeparateFiles)
	if _, err := e.fw.RunPipeline(ctx, []mapreduce.JobConf{s1, s2}); err == nil {
		t.Fatal("pipeline accepted non-append stage")
	}
}

func TestJobValidation(t *testing.T) {
	e := newBSFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/x", []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/x"}, "/out", 0, mapreduce.SeparateFiles)
	if _, err := e.fw.Run(ctx, job); err == nil {
		t.Error("zero reducers accepted")
	}
	job = wordcount.Job([]string{"/missing"}, "/out2", 1, mapreduce.SeparateFiles)
	if _, err := e.fw.Run(ctx, job); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("missing input: %v", err)
	}
}

func TestDirectoryInput(t *testing.T) {
	e := newBSFSEnv(t, 4)
	text1 := workload.Text(5<<10, 19)
	text2 := workload.Text(5<<10, 23)
	if err := dfs.WriteFile(ctx, e.fs, "/in/f1", []byte(text1)); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, e.fs, "/in/f2", []byte(text2)); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in"}, "/out", 2, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	checkWordcount(t, e, res, text1+" "+text2)
}

func TestManyReducersFewRecords(t *testing.T) {
	// More reducers than keys: empty partitions must still commit.
	e := newBSFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/x", []byte("solo\n")); err != nil {
		t.Fatal(err)
	}
	res, err := e.fw.Run(ctx, wordcount.Job([]string{"/in/x"}, "/out", 8, mapreduce.SeparateFiles))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) != 8 {
		t.Errorf("output files = %d", len(res.OutputFiles))
	}
	counts := parseCounts(t, readOutputs(t, e.fs, res))
	if counts["solo"] != 1 || len(counts) != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// countValues is a reduce function: (key, number of values).
func countValues(key []byte, values [][]byte, out *mapreduce.Emitter) {
	out.Emit(key, strconv.AppendInt(nil, int64(len(values)), 10))
}

func TestPinnedInputVersions(t *testing.T) {
	// A job on a versioned backend pins each input's snapshot at
	// submit: appends racing the job — here injected deterministically
	// from inside the first map invocation — never change what the job
	// processes, and the result reports the pin.
	e := newBSFSEnv(t, 4)
	var lines []string
	for i := 0; i < 64; i++ {
		lines = append(lines, fmt.Sprintf("record %03d", i))
	}
	input := strings.Join(lines, "\n") + "\n"
	if err := dfs.WriteFile(ctx, e.fs, "/in/data", []byte(input)); err != nil {
		t.Fatal(err)
	}
	fi, err := e.fs.Stat(ctx, "/in/data")
	if err != nil {
		t.Fatal(err)
	}

	appended := make(chan error, 1)
	var once sync.Once
	res, err := e.fw.Run(ctx, mapreduce.JobConf{
		Name:      "pinned",
		Input:     []string{"/in/data"},
		OutputDir: "/out",
		Map: func(_, line []byte, out *mapreduce.Emitter) {
			// Grow the input mid-job, exactly once, before this map
			// emits: the splits were already pinned, so the new bytes
			// must be invisible to every map of this job.
			once.Do(func() {
				w, err := e.fs.Append(ctx, "/in/data")
				if err == nil {
					_, werr := w.Write([]byte("late record\n"))
					if cerr := w.Close(); werr == nil {
						werr = cerr
					}
					err = werr
				}
				appended <- err
			})
			out.Emit([]byte("count"), []byte("1"))
		},
		Reduce:      countValues,
		NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-appended; err != nil {
		t.Fatalf("mid-job append: %v", err)
	}

	if got := res.InputVersions["/in/data"]; got != fi.Version {
		t.Errorf("pinned version = %d, want Stat's %d", got, fi.Version)
	}
	if res.InputBytes != fi.Size {
		t.Errorf("InputBytes = %d, want submit-time size %d", res.InputBytes, fi.Size)
	}
	if res.MapInputRecords != 64 {
		t.Errorf("maps read %d records, want the pinned 64", res.MapInputRecords)
	}
	// The file itself did grow.
	after, err := e.fs.Stat(ctx, "/in/data")
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != fi.Size+uint64(len("late record\n")) || after.Version <= fi.Version {
		t.Errorf("input did not grow past the pin: %+v -> %+v", fi, after)
	}

	// HDFS: same job shape, no version axis — the job runs unpinned
	// and reports no input versions.
	eh := newHDFSEnv(t, 4)
	if err := dfs.WriteFile(ctx, eh.fs, "/in/data", []byte(input)); err != nil {
		t.Fatal(err)
	}
	hres, err := eh.fw.Run(ctx, mapreduce.JobConf{
		Name:        "unpinned",
		Input:       []string{"/in/data"},
		OutputDir:   "/out",
		Map:         func(_, _ []byte, out *mapreduce.Emitter) { out.Emit([]byte("count"), []byte("1")) },
		Reduce:      countValues,
		NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hres.InputVersions != nil {
		t.Errorf("HDFS job reported pinned versions: %v", hres.InputVersions)
	}
}
