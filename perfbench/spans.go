package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/trace"
)

// span is one benchmark-side span around a call into a layer.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a root
	step       int // step id; -1 for spans outside a training step
	start, end int64
}

// window is one traced unit of work (a step or an evaluation): the
// benchmark spans it opened and the engine spans the program recorded
// meanwhile.
type window struct {
	lo, hi int // benchmark spans [lo, hi)
	engine []trace.SpanRec
}

// tracer keeps the benchmark's spans in memory. Off, every method is a
// no-op, so the timed loop runs the same code with tracing off.
type tracer struct {
	on      bool
	step    int
	next    int
	spans   []span
	stack   []int
	windows []window
	lo      int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, step: t.step, start: time.Now().UnixNano()})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].end = time.Now().UnixNano()
	t.stack = t.stack[:len(t.stack)-1]
}

// beginStep opens a step's root span under a fresh step id.
func (t *tracer) beginStep() int {
	if !t.on {
		return -1
	}
	t.step = t.next
	t.next++
	t.lo = len(t.spans)
	return t.begin("core.step")
}

// beginOther opens a root span outside any step (an evaluation).
func (t *tracer) beginOther(name string) int {
	if !t.on {
		return -1
	}
	t.step = -1
	t.lo = len(t.spans)
	return t.begin(name)
}

// abort closes every open span after a panic.
func (t *tracer) abort() {
	for len(t.stack) > 0 {
		t.end(t.stack[len(t.stack)-1])
	}
}

// collect closes the current window: it takes the engine spans the program
// recorded since the last call and clears the program's span ring. Called
// between steps, when no pass is in flight.
func (t *tracer) collect() {
	if !t.on {
		return
	}
	t.windows = append(t.windows, window{lo: t.lo, hi: len(t.spans), engine: trace.Snapshot()})
	trace.Reset()
	t.lo = len(t.spans)
}

// node is one span of the merged tree: a benchmark span or an engine span.
type node struct {
	name       string
	parent     int
	step       int
	start, end int64
	pid, tid   int32
	id         string
	engine     bool // recorded by the program, not the benchmark
}

// merge builds the span tree: benchmark spans keep their parents; each
// engine pass root (forward, backward) goes under the innermost benchmark
// span that contains it, and the other engine spans (compile, broadcast,
// batch, shard, merge) under their own engine parents.
func (t *tracer) merge() []node {
	nodes := make([]node, 0, len(t.spans))
	for i, s := range t.spans {
		nodes = append(nodes, node{name: s.name, parent: s.parent, step: s.step,
			start: s.start, end: s.end, id: fmt.Sprintf("b%d", i)})
	}
	for _, w := range t.windows {
		byID := make(map[uint64]int, len(w.engine))
		base := len(nodes)
		for j, r := range w.engine {
			byID[r.ID] = base + j
			tid := int32(0)
			if r.Kind == trace.KShard && r.Shard >= 0 {
				tid = r.Shard + 1
			}
			nodes = append(nodes, node{name: engineName(r.Kind), parent: -1, start: r.Start, end: r.End,
				pid: r.Worker, tid: tid, id: fmt.Sprintf("%016x", r.ID), engine: true})
		}
		for j, r := range w.engine {
			n := &nodes[base+j]
			if p, ok := byID[r.Parent]; ok && r.Parent != 0 {
				n.parent = p
				continue
			}
			// Innermost containing span: nested spans start later.
			best := -1
			for b := w.lo; b < w.hi; b++ {
				s := t.spans[b]
				if s.start <= r.Start && r.End <= s.end && (best < 0 || s.start >= t.spans[best].start) {
					best = b
				}
			}
			n.parent = best
		}
		for j := range w.engine {
			n := &nodes[base+j]
			// An engine span's step is its benchmark ancestor's.
			for a := n.parent; a >= 0; a = nodes[a].parent {
				if a < len(t.spans) {
					n.step = nodes[a].step
					break
				}
			}
			if n.parent < 0 {
				n.step = -1
			}
		}
	}
	return nodes
}

func engineName(k trace.Kind) string {
	switch k {
	case trace.KBroadcast, trace.KBatch, trace.KShard:
		return "dist." + k.String()
	}
	return "qsim." + k.String()
}

// selfTimes returns each node's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(nodes []node) []int64 {
	kids := make([][]int, len(nodes))
	for i, n := range nodes {
		if n.parent >= 0 {
			kids[n.parent] = append(kids[n.parent], i)
		}
	}
	self := make([]int64, len(nodes))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, n := range nodes {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := max(nodes[k].start, n.start), min(nodes[k].end, n.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = n.start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[i] = n.end - n.start - covered
	}
	return self
}

// split is the traced run's layer accounting: self time per span name summed
// over steps, the step count and total step wall time, and the evaluations'
// forward time.
type split struct {
	self        map[string]int64
	stepWall    int64
	steps       int
	evalForward int64
	evals       int
}

func layerSplit(nodes []node) split {
	s := split{self: map[string]int64{}}
	self := selfTimes(nodes)
	for i, n := range nodes {
		switch {
		case n.name == "core.eval_forward":
			s.evalForward += n.end - n.start
			s.evals++
		case n.step >= 0:
			if n.name == "core.step" {
				s.steps++
				s.stepWall += n.end - n.start
			}
			s.self[n.name] += self[i]
		}
	}
	return s
}

// chromeTrace renders the merged tree as Chrome trace-event JSON, the format
// the program's /trace endpoint serves: one complete ("X") event per span,
// pid = worker (0 = this process), tid = shard index + 1 for shard spans,
// span and parent ids in args. Timestamps are microseconds from the first
// span.
func chromeTrace(nodes []node) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int32          `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var t0 int64
	for i, n := range nodes {
		if i == 0 || n.start < t0 {
			t0 = n.start
		}
	}
	events := make([]event, 0, len(nodes)+2)
	pids := map[int32]bool{}
	for _, n := range nodes {
		args := map[string]any{"span": n.id, "step": n.step}
		if n.parent >= 0 {
			args["parent"] = nodes[n.parent].id
		}
		cat := "bench"
		if n.engine {
			cat = "torq"
		}
		events = append(events, event{Name: n.name, Cat: cat, Ph: "X",
			TS: float64(n.start-t0) / 1e3, Dur: float64(n.end-n.start) / 1e3,
			PID: n.pid, TID: n.tid, Args: args})
		pids[n.pid] = true
	}
	for pid := range pids {
		name := "trainer"
		if pid != 0 {
			name = fmt.Sprintf("worker %d", pid)
		}
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ph == "M" && events[j].Ph != "M" })
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
