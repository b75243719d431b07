package bsfs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/metrics"
	"blobseer/internal/rpc"
)

// TestRunRule: where a writer's appends begin and end is decided by the
// sizes of its Write calls and by WriteDepth alone, so the versions a
// sequence of calls produces can be written down in advance.
func TestRunRule(t *testing.T) {
	const block, depth = 256, 4
	d := newDeployment(t, block)
	d.WriteDepth = depth
	fs := mount(t, d, "cli")

	repeat := func(n, size int) []int { return slices.Repeat([]int{size}, n) }
	var upTo16 []uint64
	for i := uint64(1); i <= 16; i++ {
		upTo16 = append(upTo16, i*block)
	}
	cases := []struct {
		name   string
		writes []int // the size of each Write call
		close  bool
		sizes  []uint64 // the file size after each version, in order
	}{
		{"one Write of 4 blocks", []int{4 * block}, false, []uint64{4 * block}},
		{"9 blocks and 100 bytes, closed", []int{9*block + 100}, true,
			[]uint64{4 * block, 8 * block, 9 * block, 9*block + 100}},
		{"sixteen Writes of one block", repeat(16, block), false, upTo16},
		{"three Writes of half a block", repeat(3, block/2), false, []uint64{block}},
		{"6 blocks on a writer half a block in", []int{block / 2, 6 * block}, false,
			[]uint64{4 * block, 6 * block}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := fmt.Sprintf("/run-%d", i)
			fw, err := fs.Create(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			w := fw.(*fileWriter)
			var want []byte
			for k, n := range tc.writes {
				p := pattern(byte(i*16+k), n)
				want = append(want, p...)
				if _, err := w.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			if tc.close {
				err = w.Close()
			} else {
				// Not Flush: that would send the buffered tail. A drained
				// pipeline has completed, and so published, every version.
				err = w.drain()
			}
			if err != nil {
				t.Fatal(err)
			}
			vers, err := fs.Versions(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			var sizes []uint64
			for _, v := range vers {
				sizes = append(sizes, v.Size)
			}
			if !slices.Equal(sizes, tc.sizes) {
				t.Errorf("file sizes by version = %v, want %v", sizes, tc.sizes)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := dfs.ReadAll(ctx, fs, path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("content mismatch")
			}
		})
	}
}

// nsCalls sums the client-side calls of every namespace-manager method
// between two snapshots of the RPC client table.
func nsCalls(before, after map[string]metrics.MethodSnapshot) (n uint64) {
	for name, m := range after {
		if strings.HasPrefix(name, "ns.") {
			n += m.Calls - before[name].Calls
		}
	}
	return n
}

// TestRunIsOneAppend counts the client-side calls of one 4-block Write
// and its Flush: the run costs what one append costs, plus a put per
// page, and none of it goes to the namespace manager — or, once the
// mount holds a placement lease, to the provider manager: a cold
// client's first write asks it once, for its own pages and the lease the
// writes after it draw on.
func TestRunIsOneAppend(t *testing.T) {
	const block = 256
	d := newDeployment(t, block)
	d.WriteDepth = 4
	fs := mount(t, d, "cli")
	w, err := fs.Create(ctx, "/counted")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for _, tc := range []struct {
		client string
		allocs uint64
	}{{"cold", 1}, {"warm", 0}} {
		want := []struct {
			m     rpc.Method
			calls uint64
		}{{blob.VMAssign, 1}, {blob.VMComplete, 1}, {blob.PMAlloc, tc.allocs}, {blob.ProvPutPage, 4}}
		before := metrics.Default.RPCClient.Snapshot()
		if _, err := w.Write(pattern(1, 4*block)); err != nil {
			t.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			t.Fatal(err)
		}
		after := metrics.Default.RPCClient.Snapshot()
		for _, c := range want {
			if got := after[c.m.Name].Calls - before[c.m.Name].Calls; got != c.calls {
				t.Errorf("%s: %d calls for a 4-block Write and Flush on a %s client, want %d", c.m.Name, got, tc.client, c.calls)
			}
		}
		if got := nsCalls(before, after); got != 0 {
			t.Errorf("%d namespace-manager calls for a 4-block Write and Flush, want 0", got)
		}
	}
}

// TestRecordIsOneAppend counts the client-side calls of a 1000-byte
// Write and its Flush onto a file that ends mid-block: an unaligned
// append is the calls of any append and one put of its own bytes —
// it waits for no other version, reads nothing back and never visits
// the namespace manager or, two records into the mount's placement
// lease, the provider manager.
func TestRecordIsOneAppend(t *testing.T) {
	const block = 4096
	d := newDeployment(t, block)
	fs := mount(t, d, "cli")
	w, err := fs.Create(ctx, "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	record := func(tag byte) {
		t.Helper()
		if _, err := w.Write(pattern(tag, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	record(1)
	record(2)

	want := []struct {
		m     rpc.Method
		calls uint64
	}{{blob.VMAssign, 1}, {blob.PMAlloc, 0}, {blob.ProvPutPage, 1}, {blob.VMComplete, 1},
		{blob.VMWaitPublished, 0}, {blob.ProvGetPage, 0}}
	before := metrics.Default.RPCClient.Snapshot()
	stored := d.Blob.ProviderBytes()
	record(3)
	after := metrics.Default.RPCClient.Snapshot()
	for _, c := range want {
		if got := after[c.m.Name].Calls - before[c.m.Name].Calls; got != c.calls {
			t.Errorf("%s: %d calls for a 1000-byte Write and Flush, want %d", c.m.Name, got, c.calls)
		}
	}
	if got := nsCalls(before, after); got != 0 {
		t.Errorf("%d namespace-manager calls for a 1000-byte Write and Flush, want 0", got)
	}
	if got := d.Blob.ProviderBytes() - stored; got != 1000 {
		t.Errorf("the record stored %d bytes, want its own 1000", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/records")
	if want := slices.Concat(pattern(1, 1000), pattern(2, 1000), pattern(3, 1000)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the file reads back %d bytes (%v), want the three records", len(got), err)
	}
}

// TestOpenVersionIsOneLookup counts the version-manager lookups of an
// open and its first block: the info the open fetched is the info the
// read needs, so OpenVersion and a read are one vm.GetVersion (after the
// pin: pin first, resolve after), and Open and a read one vm.Latest.
func TestOpenVersionIsOneLookup(t *testing.T) {
	const block = 256
	d := newDeployment(t, block)
	if err := dfs.WriteFile(ctx, mount(t, d, "writer"), "/f", pattern(5, 3*block)); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, d, "reader")
	fi, err := fs.Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	lookups := func(open func() (dfs.FileReader, error)) (latest, getVersion uint64) {
		t.Helper()
		before := metrics.Default.RPCClient.Snapshot()
		r, err := open()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, block)
		if _, err := io.ReadFull(r, buf); err != nil || !bytes.Equal(buf, pattern(5, 3*block)[:block]) {
			t.Fatalf("first block: %v", err)
		}
		after := metrics.Default.RPCClient.Snapshot()
		return after[blob.VMLatest.Name].Calls - before[blob.VMLatest.Name].Calls,
			after[blob.VMGetVersion.Name].Calls - before[blob.VMGetVersion.Name].Calls
	}
	if latest, get := lookups(func() (dfs.FileReader, error) { return fs.OpenVersion(ctx, "/f", fi.Version) }); latest != 0 || get != 0 {
		t.Errorf("OpenVersion and a block read: %d vm.Latest and %d vm.GetVersion, want 0 and 0", latest, get)
	}
	cold := mount(t, d, "cold")
	if latest, get := lookups(func() (dfs.FileReader, error) { return cold.Open(ctx, "/f") }); latest != 1 || get != 0 {
		t.Errorf("Open and a block read: %d vm.Latest and %d vm.GetVersion, want 1 and 0", latest, get)
	}
}

// TestReaderLifecycleCalls counts what a reader asks of the version
// manager over its life. The reader reads through a blob.Snapshot,
// which owns the pin; the calls are the ones a reader has always made:
// Open is a lookup and a pin, OpenVersion a pin and then the lookup, a
// Refresh that finds nothing new is one lookup, one that finds a new
// version pins it before releasing the old one, and Close releases.
func TestReaderLifecycleCalls(t *testing.T) {
	const block = 256
	d := newDeployment(t, block)
	wfs, fs := mount(t, d, "writer"), mount(t, d, "reader")
	grow := func() {
		t.Helper()
		w, err := wfs.Append(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(pattern(9, block)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dfs.WriteFile(ctx, wfs, "/f", pattern(8, block)); err != nil {
		t.Fatal(err)
	}
	var r dfs.VersionedReader
	for _, step := range []struct {
		name                           string
		do                             func() error
		latest, getVersion, pin, unpin uint64
	}{
		{"Open", func() (err error) { r, err = fs.OpenVersion(ctx, "/f", 0); return }, 1, 0, 1, 0},
		{"Refresh, nothing new", func() error { _, err := r.Refresh(ctx); return err }, 1, 0, 0, 0},
		{"Refresh after an append", func() error { grow(); _, err := r.Refresh(ctx); return err }, 1, 0, 1, 1},
		{"Close", func() error { return r.Close() }, 0, 0, 0, 1},
		{"OpenVersion", func() (err error) { r, err = fs.OpenVersion(ctx, "/f", 1); return }, 0, 0, 1, 0},
		{"Refresh of a fixed version", func() error { grow(); _, err := r.Refresh(ctx); return err }, 0, 0, 0, 0},
		{"Close of a fixed version", func() error { return r.Close() }, 0, 0, 0, 1},
	} {
		before := metrics.Default.RPCClient.Snapshot()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := metrics.Default.RPCClient.Snapshot()
		for _, c := range []struct {
			m    rpc.Method
			want uint64
		}{{blob.VMLatest, step.latest}, {blob.VMGetVersion, step.getVersion}, {blob.VMPin, step.pin}, {blob.VMUnpin, step.unpin}} {
			if got := after[c.m.Name].Calls - before[c.m.Name].Calls; got != c.want {
				t.Errorf("%s: %d %s calls, want %d", step.name, got, c.m.Name, c.want)
			}
		}
	}
}
