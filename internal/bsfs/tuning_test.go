package bsfs

import "testing"

// TestTuningResolved pins the one place a mount's knobs get their
// defaults and their 0/negative meanings.
func TestTuningResolved(t *testing.T) {
	cases := []struct {
		name    string
		in      Tuning
		cacheOn bool
		want    Tuning
	}{
		{"zero means defaults", Tuning{}, true,
			Tuning{BlockSize: DefaultBlockSize, WriteDepth: DefaultWriteDepth, ReadDepth: DefaultReadDepth}},
		{"set values stand", Tuning{BlockSize: 512, WriteDepth: 1, ReadDepth: 9}, true,
			Tuning{BlockSize: 512, WriteDepth: 1, ReadDepth: 9}},
		{"negative write depth means default", Tuning{BlockSize: 512, WriteDepth: -3}, true,
			Tuning{BlockSize: 512, WriteDepth: DefaultWriteDepth, ReadDepth: DefaultReadDepth}},
		{"negative read depth means off", Tuning{BlockSize: 512, ReadDepth: -1}, true,
			Tuning{BlockSize: 512, WriteDepth: DefaultWriteDepth, ReadDepth: 0}},
		{"cache off means readahead off", Tuning{BlockSize: 512, ReadDepth: 8}, false,
			Tuning{BlockSize: 512, WriteDepth: DefaultWriteDepth, ReadDepth: 0}},
		{"cache off, default read depth", Tuning{BlockSize: 512}, false,
			Tuning{BlockSize: 512, WriteDepth: DefaultWriteDepth, ReadDepth: 0}},
	}
	for _, tc := range cases {
		if got := tc.in.resolved(tc.cacheOn); got != tc.want {
			t.Errorf("%s: %+v.resolved(%v) = %+v, want %+v", tc.name, tc.in, tc.cacheOn, got, tc.want)
		}
	}
}
