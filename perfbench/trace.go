package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the traced run recorded: its name ("layer.call"),
// its interval as offsets from the run's origin, and the span that
// caused it (Parent 0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted in
// dropped but still feed the samples and counters.
const maxSpans = 200_000

// tracing is what a traced run collects at the boundaries between the
// benchmark and the program: spans with parent links, kept in memory
// and written out when the run ends, plus named samples and counters
// taken at the same boundaries. Every method is safe on a nil
// *tracing, which is how untraced runs record nothing.
type tracing struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	// calls counts the recording calls made: start, end, interval,
	// sample and count.
	calls   int
	samples map[string][]float64
	counts  map[string]float64
}

func newTracing() *tracing {
	return &tracing{
		origin:  time.Now(),
		samples: make(map[string][]float64),
		counts:  make(map[string]float64),
	}
}

// start opens a span under parent and returns its ID for end.
func (t *tracing) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	return t.add(span{Parent: parent, Name: name, Start: now, End: now})
}

// end closes the span start returned.
func (t *tracing) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.calls++
	t.mu.Unlock()
}

// interval records a span whose ends the program stamped itself (a
// serve job's queue and run times).
func (t *tracing) interval(name string, parent int, from, to time.Time) {
	if t == nil {
		return
	}
	t.add(span{Parent: parent, Name: name, Start: from.Sub(t.origin), End: to.Sub(t.origin)})
}

func (t *tracing) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracing) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.calls++
	t.mu.Unlock()
}

func (t *tracing) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.calls++
	t.mu.Unlock()
}

// callNs is the cost of one recording call in nanoseconds, timed for d
// on a scratch tracing in the mix a traced solve's pump loop makes them:
// a span's start and end, a sample and a count. The scratch tracing is
// replaced before its span log fills, so no call takes the cheaper
// dropped path.
func callNs(d time.Duration) float64 {
	t := newTracing()
	return perCall(d, 1024, func(i int) {
		if i%(maxSpans/2) == 0 {
			t = newTracing()
		}
		t.end(t.start("core.pump", 0))
		t.sample("core.pump_ms", 1)
		t.count("core.flips", 1)
	}) / 4
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Children that overlap (concurrent
// RPCs under one cluster run) are merged first, so covered time is
// never subtracted twice, and a child running past its parent is
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanStat aggregates the spans of one name, or of one layer.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summarize aggregates spans by name and by layer (the name's prefix
// before the first dot), each sorted by self time, largest first.
func summarize(spans []span) (byName, byLayer []spanStat) {
	self := selfTimes(spans)
	names := map[string]*spanStat{}
	layers := map[string]*spanStat{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		for _, agg := range []struct {
			m   map[string]*spanStat
			key string
		}{{names, s.Name}, {layers, layer}} {
			st := agg.m[agg.key]
			if st == nil {
				st = &spanStat{Name: agg.key}
				agg.m[agg.key] = st
			}
			st.Count++
			st.Total += s.End - s.Start
			st.Self += self[i]
		}
	}
	return sortedStats(names), sortedStats(layers)
}

func sortedStats(m map[string]*spanStat) []spanStat {
	out := make([]spanStat, 0, len(m))
	for _, st := range m {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}
