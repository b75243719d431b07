package experiments

import (
	"context"
	"fmt"

	"blobseer/internal/obs"
)

// TraceAppend boots a fresh deployment, runs ONE traced append and
// read-back against it, and returns the rendered causal span tree:
// the client's blob.append with its merge/pages/commit stages, each
// rpc:* client span, and the serve:* spans stitched in from the
// version-manager and provider processes by the trace context the
// frames carried. This is the observability acceptance demo — one
// append explained end to end across processes.
func TraceAppend(ctx context.Context, cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return "", err
	}
	defer env.Close()

	hosts := env.cluster.ProviderHosts()
	c := env.cluster.Client(hosts[0])
	defer c.Close()
	bl, err := c.Create(ctx, cfg.BlockSize)
	if err != nil {
		return "", err
	}

	tctx, root := obs.StartTrace(ctx, "append.sample")
	data := chunk(cfg, 0)
	wr, err := bl.Append(tctx, data)
	if err != nil {
		root.End(err)
		return "", err
	}
	if _, err := bl.WaitPublished(tctx, wr.Ver); err != nil {
		root.End(err)
		return "", err
	}
	buf := make([]byte, len(data))
	if _, err := bl.ReadAtInto(tctx, wr.Ver, 0, buf); err != nil {
		root.End(err)
		return "", err
	}
	root.End(nil)

	trace, _, ok := obs.SpanIDs(tctx)
	if !ok {
		return "", fmt.Errorf("trace context lost")
	}
	return obs.Spans.Tree(trace), nil
}
