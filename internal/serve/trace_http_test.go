package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"testing"

	"abs/internal/telemetry"
)

// TestHTTPJobTrace drives one job to completion and then reads its
// causal timeline back through GET /v1/jobs/{id}/trace: the NDJSON
// default must yield the job/job.queue/job.run span chain all in one
// trace, and ?format=chrome must yield a parseable Chrome trace-event
// array with those spans as complete ("X") slices.
func TestHTTPJobTrace(t *testing.T) {
	ts, _ := newTestServer(t, testConfig(1))

	code, j := postJob(t, ts, `{"random": {"n": 32, "seed": 7}, "max_flips": 200000, "name": "trace-me"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitJob(t, ts, j.ID, "completion", func(j jobJSON) bool { return j.State == "done" })

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type = %q", ct)
	}

	// Every line is {"span": …} or {"event": …}; all records must agree
	// on one trace ID and the lifecycle spans must all be present.
	spanNames := map[string]telemetry.Span{}
	traces := map[string]bool{}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Span  *telemetry.Span  `json:"span"`
			Event *telemetry.Event `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Span != nil:
			spanNames[line.Span.Name] = *line.Span
			traces[line.Span.TraceID] = true
		case line.Event != nil:
			events++
			traces[line.Event.TraceID] = true
		default:
			t.Fatalf("line %q is neither span nor event", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"job", "job.queue", "job.run"} {
		if _, ok := spanNames[name]; !ok {
			t.Errorf("trace is missing the %s span (got %v)", name, keys(spanNames))
		}
	}
	if len(traces) != 1 {
		t.Errorf("trace endpoint mixed %d trace IDs, want exactly 1", len(traces))
	}
	if root, ok := spanNames["job"]; ok {
		if root.Node != "serve" {
			t.Errorf("job root span node = %q, want serve", root.Node)
		}
		if root.Attrs["job"] != j.ID {
			t.Errorf("job root span attr job = %q, want %s", root.Attrs["job"], j.ID)
		}
	}
	if run, ok := spanNames["job.run"]; ok && run.Parent != spanNames["job"].SpanID {
		t.Errorf("job.run parent = %q, want the job root %q", run.Parent, spanNames["job"].SpanID)
	}
	if telemetry.Enabled && events == 0 {
		t.Error("trace carries no engine events")
	}

	// Chrome export: one JSON array of trace-event records, with the
	// lifecycle spans as complete slices and a serve lane registered.
	cresp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("GET chrome trace: %d", cresp.StatusCode)
	}
	var records []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Args  map[string]any `json:"args"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&records); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	slices := map[string]bool{}
	serveLane := false
	for _, r := range records {
		if r.Phase == "X" {
			slices[r.Name] = true
		}
		if r.Phase == "M" && r.Name == "thread_name" && r.Args["name"] == "serve" {
			serveLane = true
		}
	}
	for _, name := range []string{"job", "job.queue", "job.run"} {
		if !slices[name] {
			t.Errorf("chrome trace is missing the %s slice", name)
		}
	}
	if !serveLane {
		t.Error("chrome trace has no serve thread lane")
	}

	// Unknown jobs 404.
	nf, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: %d, want 404", nf.StatusCode)
	}
}

func keys(m map[string]telemetry.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
