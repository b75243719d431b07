// Package grep is a distributed-grep Map/Reduce application: it counts
// occurrences of a literal pattern per matching line content. Used by
// the pipeline example as a cheap second stage.
package grep

import (
	"bytes"
	"strconv"

	"blobseer/internal/mapreduce"
)

// Job returns a grep JobConf matching the literal pattern.
func Job(inputs []string, outputDir, pattern string, reducers int, mode mapreduce.OutputMode) mapreduce.JobConf {
	return mapreduce.JobConf{
		Name:        "grep:" + pattern,
		Input:       inputs,
		OutputDir:   outputDir,
		Map:         Map(pattern),
		Combine:     Reduce,
		Reduce:      Reduce,
		NumReducers: reducers,
		OutputMode:  mode,
	}
}

var one = []byte("1")

// Map emits (line, "1") for lines containing the pattern.
func Map(pattern string) mapreduce.MapFunc {
	pat := []byte(pattern)
	return func(key, value []byte, out *mapreduce.Emitter) {
		if bytes.Contains(value, pat) {
			out.Emit(value, one)
		}
	}
}

// Reduce sums the match counts of identical lines.
func Reduce(key []byte, values [][]byte, out *mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			continue
		}
		total += n
	}
	var sum [20]byte
	out.Emit(key, strconv.AppendInt(sum[:0], int64(total), 10))
}
