package grep

import (
	"bytes"
	"testing"

	"blobseer/internal/mapreduce"
)

func TestMapMatches(t *testing.T) {
	m := Map("needle")
	var buf bytes.Buffer
	out := mapreduce.NewEmitter(&buf)
	m([]byte("k"), []byte("hay needle hay"), out)
	m([]byte("k"), []byte("just hay"), out)
	if got := buf.String(); got != "hay needle hay\t1\n" {
		t.Fatalf("got %q", got)
	}
}

func TestReduceCounts(t *testing.T) {
	var buf bytes.Buffer
	Reduce([]byte("line"), [][]byte{[]byte("1"), []byte("1")}, mapreduce.NewEmitter(&buf))
	if got := buf.String(); got != "line\t2\n" {
		t.Errorf("count = %q", got)
	}
}

func TestJobConf(t *testing.T) {
	job := Job([]string{"/in"}, "/out", "pat", 3, 0)
	if job.NumReducers != 3 || len(job.Input) != 1 || job.Combine == nil {
		t.Errorf("job = %+v", job)
	}
}
