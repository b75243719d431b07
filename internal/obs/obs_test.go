package obs

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "op")
	cctx, child := StartSpan(ctx, "stage")
	leaf := StartChild(cctx, "rpc:call")
	leaf.Annotate("-> %s", "srv/a")
	leaf.End(nil)
	remote := StartRemote(root.Trace, leaf.ID, "serve:call", "srv/a")
	remote.End(errors.New("boom"))
	child.End(nil)
	root.End(nil)

	spans := Spans.Trace(root.Trace)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	byName := make(map[string]SpanInfo)
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["stage"].Parent != root.ID {
		t.Errorf("stage parent = %d, want %d", byName["stage"].Parent, root.ID)
	}
	if byName["rpc:call"].Parent != byName["stage"].ID {
		t.Errorf("leaf parent = %d, want %d", byName["rpc:call"].Parent, byName["stage"].ID)
	}
	if byName["serve:call"].Parent != byName["rpc:call"].ID {
		t.Errorf("remote parent = %d, want %d", byName["serve:call"].Parent, byName["rpc:call"].ID)
	}

	tree := Spans.Tree(root.Trace)
	for _, want := range []string{"op", "stage", "rpc:call", "serve:call", "@srv/a", "ERR(boom)", "· -> srv/a"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// The server-side span must render UNDER the client call span.
	if strings.Index(tree, "rpc:call") > strings.Index(tree, "serve:call") {
		t.Errorf("serve:call not nested under rpc:call:\n%s", tree)
	}
}

func TestUntracedContextAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	octx, s := StartSpan(ctx, "x")
	if s != nil || octx != ctx {
		t.Errorf("untraced StartSpan = (%v, %v)", octx, s)
	}
	if c := StartChild(ctx, "x"); c != nil {
		t.Errorf("untraced StartChild = %v", c)
	}
	if r := StartRemote(0, 0, "x", "y"); r != nil {
		t.Errorf("zero-trace StartRemote = %v", r)
	}
	// All methods are nil-safe.
	s.Annotate("ignored")
	s.End(nil)
}

func TestSpanEndIdempotent(t *testing.T) {
	c := NewCollector(8)
	_, root := StartTrace(context.Background(), "once")
	root.coll = c
	root.End(nil)
	root.End(errors.New("second end must not re-record"))
	if got := len(c.Trace(root.Trace)); got != 1 {
		t.Errorf("retained %d spans after double End, want 1", got)
	}
}

func TestCollectorRingWraps(t *testing.T) {
	c := NewCollector(4)
	ctx, root := StartTrace(context.Background(), "wrap")
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, fmt.Sprintf("s%d", i))
		s.coll = c
		s.End(nil)
	}
	spans := c.Trace(root.Trace)
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	// Oldest entries were overwritten; the survivors are the newest 4.
	for _, s := range spans {
		if s.Name < "s6" {
			t.Errorf("span %s survived a full wrap", s.Name)
		}
	}
	// Orphaned spans (parent fell out of the ring) still render.
	tree := c.Tree(root.Trace)
	if !strings.Contains(tree, "s9") {
		t.Errorf("tree after wrap:\n%s", tree)
	}
}

func TestSlowThresholdLogs(t *testing.T) {
	var b strings.Builder
	old, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&b, &slog.HandlerOptions{Level: slog.LevelWarn})))
	// SetDefault also points the log package at the handler; put both back.
	defer func() { slog.SetDefault(old); log.SetOutput(w); log.SetFlags(flags) }()

	c := NewCollector(8)
	c.SetSlowThreshold(time.Nanosecond)
	_, s := StartTrace(context.Background(), "crawl")
	s.coll = c
	time.Sleep(time.Millisecond)
	s.End(nil)
	if !strings.Contains(b.String(), `msg="slow op" op=crawl`) {
		t.Errorf("no slow-op warning:\n%s", b.String())
	}

	b.Reset()
	c.SetSlowThreshold(0)
	_, s2 := StartTrace(context.Background(), "fast")
	s2.coll = c
	s2.End(nil)
	if strings.Contains(b.String(), "slow op") {
		t.Errorf("disarmed threshold still logs:\n%s", b.String())
	}
}
