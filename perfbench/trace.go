package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around calls into the program's layers. Spans are
// opened and closed by the benchmark's own wrappers (the program is not
// instrumented). Every span is accounted — total and self time per layer
// — while full span records (name, start, end, parent, frame/request id)
// are kept only for ids the sampler selects, and written out at the end.
//
// A tracer has one lane per goroutine that opens spans: lane 0 is the
// host goroutine; sharded simulations and fleet shards get a lane each.
type tracer struct {
	base     time.Time
	every    uint64 // per-frame/request sampling: 1 in every
	maxSpans int    // sampled records kept per lane
	names    []string
	index    map[string]int
	lanes    []*lane
	// Calibrated cost of one empty span: inner is what it reports as
	// its own duration, outer what it adds to its parent's self time.
	inner, outer float64
}

// span is one sampled record. Parent is the index of the enclosing
// sampled span in the same lane, or -1.
type span struct {
	Layer  int
	ID     uint64
	Parent int32
	Start  int64
	End    int64
}

// open is a span in progress on a lane's stack.
type open struct {
	layer int
	start int64
	child int64 // time covered by child spans (or parallel critical path)
	rec   int32 // index into lane.spans, -1 when unsampled
}

// lane is one goroutine's span stack and per-layer accounting.
type lane struct {
	tr    *tracer
	stack []open
	total []int64 // ns, every call
	self  []int64 // ns, minus child coverage
	count []int64
	kids  []int64 // spans closed directly inside the layer's spans
	root  int64   // ns covered by depth-0 spans
	// parallel is child coverage credited from other lanes by addChild.
	parallel int64
	// overrun counts spans whose children covered more than their own
	// duration.
	overrun int64
	spans   []span
}

func newTracer(every uint64) *tracer {
	t := &tracer{base: time.Now(), every: every, maxSpans: 1 << 16, index: map[string]int{}}
	t.calibrate()
	return t
}

// calibrate measures an empty span inside a parent span, so per-call
// layer times can be reported net of the clock reads spans add.
func (t *tracer) calibrate() {
	const n = 200_000
	l := &lane{tr: t, stack: make([]open, 0, 4)}
	l.grow(2)
	var inner, outer []float64
	for r := 0; r < 5; r++ {
		l.total[1], l.self[0] = 0, 0
		l.begin(0, 0)
		for i := 0; i < n; i++ {
			l.begin(1, 0)
			l.end()
		}
		l.end()
		inner = append(inner, float64(l.total[1])/n)
		outer = append(outer, float64(l.self[0])/n)
	}
	t.inner, t.outer = median(inner), median(outer)
}

// perCall is a layer's mean time per call in ns, net of the span's own
// calibrated cost (0 for a layer with no calls).
func (t *tracer) perCall(name string) float64 {
	s := t.stats(name)
	if s.count == 0 {
		return 0
	}
	return math.Max(0, float64(s.total)/float64(s.count)-t.inner)
}

// netSelf is a layer's self time in ns net of the cost its direct
// child spans added to it.
func (t *tracer) netSelf(name string) float64 {
	s := t.stats(name)
	return math.Max(0, float64(s.self)-float64(s.kids)*t.outer)
}

// layer registers (or finds) a layer name; call during set-up only.
func (t *tracer) layer(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	t.index[name] = len(t.names)
	t.names = append(t.names, name)
	for _, l := range t.lanes {
		l.grow(len(t.names))
	}
	return len(t.names) - 1
}

// lane returns lane i, creating lanes up to it; call during set-up only.
func (t *tracer) lane(i int) *lane {
	for len(t.lanes) <= i {
		l := &lane{tr: t, stack: make([]open, 0, 16), spans: make([]span, 0, 1024)}
		l.grow(len(t.names))
		t.lanes = append(t.lanes, l)
	}
	return t.lanes[i]
}

func (l *lane) grow(n int) {
	for len(l.total) < n {
		l.total = append(l.total, 0)
		l.self = append(l.self, 0)
		l.count = append(l.count, 0)
		l.kids = append(l.kids, 0)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// sample returns id when the sampler keeps it, else 0 (unsampled).
func (t *tracer) sample(id uint64) uint64 {
	if id%t.every == 0 {
		return id
	}
	return 0
}

// begin opens a span of layer on l; id is 0 for an unsampled span.
func (l *lane) begin(layer int, id uint64) {
	rec := int32(-1)
	now := l.tr.now()
	if id != 0 && len(l.spans) < l.tr.maxSpans {
		parent := int32(-1)
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].rec
		}
		l.spans = append(l.spans, span{Layer: layer, ID: id, Parent: parent, Start: now})
		rec = int32(len(l.spans) - 1)
	}
	l.stack = append(l.stack, open{layer: layer, start: now, rec: rec})
}

// end closes the innermost span and returns its duration.
func (l *lane) end() int64 {
	now := l.tr.now()
	n := len(l.stack) - 1
	o := l.stack[n]
	l.stack = l.stack[:n]
	d := now - o.start
	if o.child > d {
		l.overrun++
	}
	l.total[o.layer] += d
	l.self[o.layer] += d - o.child
	l.count[o.layer]++
	if o.rec >= 0 {
		l.spans[o.rec].End = now
	}
	if n > 0 {
		l.stack[n-1].child += d
		l.kids[l.stack[n-1].layer]++
	} else {
		l.root += d
	}
	return d
}

// addChild credits the innermost open span with d ns of child coverage
// that ran on other lanes (the critical path of a parallel section).
func (l *lane) addChild(d int64) {
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		l.parallel += d
	}
}

// laneRoots snapshots the spanned time of every lane but the host's,
// before a parallel section.
func (t *tracer) laneRoots() []int64 {
	r := make([]int64, len(t.lanes)-1)
	for i, l := range t.lanes[1:] {
		r[i] = l.root
	}
	return r
}

// busiest is the largest spanned time any non-host lane added since
// before: the critical path of the parallel section.
func (t *tracer) busiest(before []int64) int64 {
	var crit int64
	for i, l := range t.lanes[1:] {
		crit = max(crit, l.root-before[i])
	}
	return crit
}

// layerStats is one layer's accounting summed over lanes.
type layerStats struct {
	total, self, count, kids int64
}

// stats sums a layer's accounting over all lanes.
func (t *tracer) stats(name string) layerStats {
	i, ok := t.index[name]
	if !ok {
		return layerStats{}
	}
	var s layerStats
	for _, l := range t.lanes {
		s.total += l.total[i]
		s.self += l.self[i]
		s.count += l.count[i]
		s.kids += l.kids[i]
	}
	return s
}

// hostSelf is the sum of lane 0's per-layer self times: with parallel
// sections entering as their critical path, it covers the host's traced
// wall time except for unspanned glue.
func (t *tracer) hostSelf() int64 {
	s := t.lanes[0].parallel
	for _, v := range t.lanes[0].self {
		s += v
	}
	return s
}

// dump writes the sampled spans as JSON lines under dir, one header line
// first with the sampling rate.
func (t *tracer) dump(dir, file string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	if err := enc.Encode(map[string]any{"sample_every": t.every, "spans": n, "layers": t.names}); err != nil {
		f.Close()
		return err
	}
	type rec struct {
		Lane   int    `json:"lane"`
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for li, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(rec{li, t.names[s.Layer], s.ID, s.Parent, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// idRing carries frame ids between two hops that preserve frame order
// (a link, a module's PPE pipeline), so a frame's spans share one id.
type idRing struct {
	buf        []uint64
	head, size int
}

func newIDRing(n int) *idRing { return &idRing{buf: make([]uint64, n)} }

func (r *idRing) push(id uint64) {
	if r.size == len(r.buf) {
		// Full: grow, keeping order.
		nb := make([]uint64, 2*len(r.buf))
		for i := 0; i < r.size; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.size)%len(r.buf)] = id
	r.size++
}

func (r *idRing) pop() uint64 {
	if r.size == 0 {
		return 0
	}
	id := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return id
}

// rootID is the id of a step-level root span: every root is recorded.
func rootID(step uint64) uint64 { return 1<<62 | (step + 1) }
