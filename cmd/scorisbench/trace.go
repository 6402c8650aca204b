package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The spans of one op
// share Op; Parent is the span that caused this one (0 for an op's
// root span). Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Work is the work done inside the span, counted where it happens:
	// bytes for fasta and tabular spans, bases for index builds.
	Work int64 `json:"work,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// layerOp is the layer of an op's root span: time inside it that no
// child span covers is the op's unattributed time.
const layerOp = "op"

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Workload: t.workload,
		Layer: layer, Name: name, StartNS: start})
	return id
}

func (t *tracer) end(id int) { t.endWork(id, 0) }

// endWork closes a span and records the work done inside it.
func (t *tracer) endWork(id int, work int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS, t.spans[id-1].Work = end, int64(work)
	t.mu.Unlock()
}

// child records a finished span laid inside parent at the given offset
// from the parent's start: the step spans synthesised from
// Result.Metrics, whose durations the engine measured itself.
func (t *tracer) child(parent int, layer, name string, offset, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.StartNS + int64(offset)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Workload: t.workload,
		Layer: layer, Name: name, StartNS: start, EndNS: start + int64(dur)})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNS < ks[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// attribution sums self time per layer over the op spans and checks
// that the tree is sound: within each op, the self times of all spans
// must add up to the root's duration. Children that overlap each other
// or leak outside their parent break that sum.
func attribution(spans []span) (byLayer map[string]int64, opTotal int64, err error) {
	self := selfTimes(spans)
	byLayer = make(map[string]int64)
	perOp := make(map[int]int64)
	var roots []span
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
		perOp[s.Op] += self[s.ID]
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	seen := make(map[int]bool)
	for _, root := range roots {
		if seen[root.Op] {
			return nil, 0, fmt.Errorf("trace: op %d has two root spans", root.Op)
		}
		seen[root.Op] = true
		dur := root.EndNS - root.StartNS
		opTotal += dur
		if diff := perOp[root.Op] - dur; diff > dur/20 || diff < -dur/20 {
			return nil, 0, fmt.Errorf("trace: op %d: span self times sum to %d ns, the op took %d ns", root.Op, perOp[root.Op], dur)
		}
	}
	return byLayer, opTotal, nil
}

// spanMS returns the durations, in ms and span order, of the spans
// with the given layer and name.
func spanMS(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// pairedDiffs returns, for every op that has both a span (layerA,
// nameA) and a span (layerB, nameB), the first's duration minus the
// second's, in ms.
func pairedDiffs(spans []span, layerA, nameA, layerB, nameB string) []float64 {
	a, b := map[int]float64{}, map[int]float64{}
	for _, s := range spans {
		switch {
		case s.Layer == layerA && s.Name == nameA:
			a[s.Op] = s.ms()
		case s.Layer == layerB && s.Name == nameB:
			b[s.Op] = s.ms()
		}
	}
	var out []float64
	for _, s := range spans {
		if x, ok := a[s.Op]; ok && s.Parent == 0 {
			if y, ok := b[s.Op]; ok {
				out = append(out, x-y)
			}
		}
	}
	return out
}

// workRate returns work per second over the spans with the given
// layer and one of the names: total work over total time.
func workRate(spans []span, layer string, names ...string) float64 {
	var work, ns int64
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				work += s.Work
				ns += s.EndNS - s.StartNS
			}
		}
	}
	return ratio(float64(work), float64(ns)/1e9)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ms returns the duration of a closed span in milliseconds.
func (t *tracer) ms(id int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].ms()
}
