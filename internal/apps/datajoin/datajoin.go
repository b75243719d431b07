// Package datajoin implements the data-join application of the paper's
// evaluation (§4.3), "similar to the outer join operation from the
// database context": it takes two key-value files and merges them on
// the keys of the first file that also appear in the second, emitting
// one output row per (valueA, valueB) combination. Keys appearing only
// in the first file produce no output.
package datajoin

import (
	"bytes"
	"strings"

	"blobseer/internal/mapreduce"
)

// Tags prefixed to values so the reducer can tell the two inputs apart.
var (
	tagA = []byte("A\x00")
	tagB = []byte("B\x00")
	tab  = []byte("\t")
)

// Job returns the JobConf for joining fileA and fileB into outputDir.
// Input lines are "key<TAB>value". Output lines are
// "key<TAB>valueA<TAB>valueB".
func Job(fileA, fileB, outputDir string, reducers int, mode mapreduce.OutputMode) mapreduce.JobConf {
	return mapreduce.JobConf{
		Name:        "datajoin",
		Input:       []string{fileA, fileB},
		OutputDir:   outputDir,
		Map:         mapFunc(fileA),
		Reduce:      Reduce,
		NumReducers: reducers,
		OutputMode:  mode,
	}
}

// mapFunc tags each record with its source file. The framework passes
// "path:offset" as the map key.
func mapFunc(fileA string) mapreduce.MapFunc {
	return func(key, value []byte, out *mapreduce.Emitter) {
		k, v, ok := bytes.Cut(value, tab)
		if !ok || len(k) == 0 {
			return // malformed record; data join skips it
		}
		path := key
		if i := bytes.LastIndexByte(key, ':'); i >= 0 {
			path = key[:i]
		}
		if string(path) == fileA {
			out.Emit(k, tagA, v)
		} else {
			out.Emit(k, tagB, v)
		}
	}
}

// Reduce emits the cross product of A-values and B-values for keys
// present in both inputs. A group's values arrive in byte order, so the
// A-tagged ones lead the slice and the B-tagged ones follow them:
// neither side is copied out, and a row goes to the emitter in parts.
func Reduce(key []byte, values [][]byte, out *mapreduce.Emitter) {
	as, rest := cutTagged(values, tagA)
	bs, _ := cutTagged(rest, tagB)
	for _, a := range as {
		for _, b := range bs {
			out.Emit(key, a[len(tagA):], tab, b[len(tagB):])
		}
	}
}

// cutTagged splits values behind its leading run of tag-prefixed ones.
func cutTagged(values [][]byte, tag []byte) (tagged, rest [][]byte) {
	n := 0
	for n < len(values) && bytes.HasPrefix(values[n], tag) {
		n++
	}
	return values[:n], values[n:]
}

// ReferenceJoin computes the expected join output (as unordered lines
// "key\tvalueA\tvalueB") from raw input file contents; tests compare
// the Map/Reduce output against it.
func ReferenceJoin(contentA, contentB string) map[string]int {
	parse := func(content string) map[string][]string {
		m := make(map[string][]string)
		for _, line := range strings.Split(content, "\n") {
			if line == "" {
				continue
			}
			k, v, ok := strings.Cut(line, "\t")
			if !ok || k == "" {
				continue
			}
			m[k] = append(m[k], v)
		}
		return m
	}
	a := parse(contentA)
	b := parse(contentB)
	out := make(map[string]int)
	for k, avs := range a {
		bvs, ok := b[k]
		if !ok {
			continue
		}
		for _, av := range avs {
			for _, bv := range bvs {
				out[k+"\t"+av+"\t"+bv]++
			}
		}
	}
	return out
}
