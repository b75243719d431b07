// Package wordcount is the canonical Map/Reduce application, used by
// examples and framework tests.
package wordcount

import (
	"bytes"
	"strconv"
	"strings"

	"blobseer/internal/mapreduce"
)

// Job returns a wordcount JobConf over the given inputs.
func Job(inputs []string, outputDir string, reducers int, mode mapreduce.OutputMode) mapreduce.JobConf {
	return mapreduce.JobConf{
		Name:        "wordcount",
		Input:       inputs,
		OutputDir:   outputDir,
		Map:         Map,
		Combine:     Reduce, // sums are associative: reuse as combiner
		Reduce:      Reduce,
		NumReducers: reducers,
		OutputMode:  mode,
	}
}

var one = []byte("1")

// Map emits (word, "1") for every whitespace-separated word.
func Map(key, value []byte, out *mapreduce.Emitter) {
	for w := range bytes.FieldsSeq(value) {
		out.Emit(w, one)
	}
}

// Reduce sums the counts of one word.
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

// ReferenceCount computes expected counts from raw text.
func ReferenceCount(content string) map[string]int {
	out := make(map[string]int)
	for _, w := range strings.Fields(content) {
		out[w]++
	}
	return out
}
