package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if !sc.Valid() {
		t.Fatalf("minted context invalid: %+v", sc)
	}
	hdr := sc.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("unexpected header shape: %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-0000000000000000-01",
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("0", 16) + "-01", // non-hex
		strings.Repeat("0", 55),                          // no dashes
		"00-" + NewTraceID() + "-xx",                     // truncated
		"zz-" + NewTraceID() + "-" + NewSpanID() + "-01", // non-hex version
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// Unknown-but-well-formed version and flags are accepted.
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if _, ok := ParseTraceparent("01-" + sc.TraceID + "-" + sc.SpanID + "-00"); !ok {
		t.Error("well-formed unknown version rejected")
	}
}

func TestZeroSpanContextInvalid(t *testing.T) {
	var sc SpanContext
	if sc.Valid() {
		t.Fatal("zero SpanContext reported valid")
	}
	if sc.Traceparent() != "" {
		t.Fatalf("zero context rendered %q", sc.Traceparent())
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartSpan("root", SpanContext{})
	root.SetAttr("node", "test")
	child := tr.StartSpan("child", root.Context())
	child.Event(Event{Kind: EventPoolInsert, Device: -1, Block: -1})
	child.Fail(errors.New("boom"))
	child.End()
	child.End() // idempotent
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("order: %q then %q, want child then root", c.Name, r.Name)
	}
	if c.TraceID != r.TraceID {
		t.Fatalf("trace IDs differ: %q vs %q", c.TraceID, r.TraceID)
	}
	if c.Parent != r.SpanID {
		t.Fatalf("child parent %q, want root span %q", c.Parent, r.SpanID)
	}
	if c.Err != "boom" {
		t.Fatalf("child err %q", c.Err)
	}
	if r.Attrs["node"] != "test" {
		t.Fatalf("root attrs %v", r.Attrs)
	}
	if c.DurationNanos < 0 || c.Start == 0 {
		t.Fatalf("bad timing: start=%d dur=%d", c.Start, c.DurationNanos)
	}

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].TraceID != c.TraceID || evs[0].SpanID != c.SpanID {
		t.Fatalf("event not stamped with child span: %+v", evs[0])
	}
}

func TestNilTracerSpansAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.SetAttr("a", "b")
	sp.Event(Event{Kind: EventPoolInsert})
	sp.Fail(errors.New("x"))
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span has valid context")
	}
	tr.RecordSpan(Span{SpanID: "abc"})
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans() = %v", got)
	}
	if spans, cur := tr.SpansSince(0, 10); spans != nil || cur != 0 {
		t.Fatalf("nil tracer SpansSince = %v, %d", spans, cur)
	}
}

func TestSpanRingWrapAndSince(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.StartSpan("s", SpanContext{}).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("not oldest-first: %v", spans)
		}
	}
	if spans[0].Seq != 3 {
		t.Fatalf("oldest seq %d, want 3", spans[0].Seq)
	}

	batch, cur := tr.SpansSince(0, 2)
	if len(batch) != 2 || cur != 4 {
		t.Fatalf("first batch len=%d cur=%d", len(batch), cur)
	}
	batch, cur = tr.SpansSince(cur, 100)
	if len(batch) != 2 || cur != 6 {
		t.Fatalf("second batch len=%d cur=%d", len(batch), cur)
	}
	if batch, _ = tr.SpansSince(cur, 100); len(batch) != 0 {
		t.Fatalf("drained cursor returned %d spans", len(batch))
	}
}

func TestRecordSpanDedup(t *testing.T) {
	tr := NewTracer(64)
	s := Span{TraceID: NewTraceID(), SpanID: NewSpanID(), Name: "shipped"}
	tr.RecordSpan(s)
	tr.RecordSpan(s) // at-least-once re-delivery
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("dedup failed: %d spans", got)
	}
	// Distinct IDs are all kept.
	for i := 0; i < 5; i++ {
		tr.RecordSpan(Span{TraceID: s.TraceID, SpanID: NewSpanID()})
	}
	if got := len(tr.Spans()); got != 6 {
		t.Fatalf("got %d spans, want 6", got)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("empty context carried a span")
	}
	// Invalid contexts do not attach.
	if _, ok := SpanFromContext(ContextWithSpan(ctx, SpanContext{})); ok {
		t.Fatal("invalid span context attached")
	}
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	got, ok := SpanFromContext(ContextWithSpan(ctx, sc))
	if !ok || got != sc {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestSinkCarriesSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.SetSink(&buf)
	sp := tr.StartSpan("sunk", SpanContext{})
	sp.End()
	tr.Emit(Event{Kind: EventPoolInsert, Device: -1, Block: -1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d lines, want 2", len(lines))
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil || s.Name != "sunk" {
		t.Fatalf("first sink line not the span: %q (%v)", lines[0], err)
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartSpan("run", SpanContext{})
	root.SetNode("coordinator")
	child := tr.StartSpan("rpc.lease", root.Context())
	child.SetNode("worker-1")
	child.Event(Event{Kind: EventLeaseGrant, Device: -1, Block: -1, Detail: "w1 n=2"})
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), tr.Events()); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	var complete, instant, meta int
	for _, r := range records {
		switch r["ph"] {
		case "X":
			complete++
			if r["ts"] == nil || r["args"] == nil {
				t.Fatalf("complete event missing ts/args: %v", r)
			}
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete != 2 || instant != 1 || meta < 2 {
		t.Fatalf("got X=%d i=%d M=%d, want 2/1/>=2", complete, instant, meta)
	}
}
