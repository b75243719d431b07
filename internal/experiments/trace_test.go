package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestTraceAppendTree(t *testing.T) {
	tree, err := TraceAppend(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance shape: one sampled append rendered as a causal
	// tree crossing client -> version manager -> provider.
	for _, want := range []string{
		"append.sample",
		"blob.append",
		"write.pages",
		"rpc:vm.Assign",
		"serve:vm.Assign",
		"rpc:prov.PutPage",
		"serve:prov.PutPage",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing %q:\n%s", want, tree)
		}
	}
}
