package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed   int64
	shards int
	dur    time.Duration
}

// instance is one set-up workload.
type instance interface {
	// warmup runs the workload's fixed, seeded reference work. It is
	// the same simulated work on every host, so the modeled outputs read
	// after it, and the allocation it causes, do not depend on host speed.
	warmup() error
	// modeled returns the modeled (simulated) outputs after warmup: guard
	// metrics for the traced report and a canonical digest for the
	// determinism tests.
	modeled() (metrics, string)
	// step runs one unit of timed work and returns the operations it
	// completed (offered frames, or management operations).
	step() (ops int64, err error)
	// figures adds the workload's own end-to-end figures (resync, RPC
	// and OTA timings) measured since warmup.
	figures(m metrics)
	// finish drains in-flight work and checks the outputs.
	finish() check
	// layers adds the span-derived per-layer metrics of a traced instance
	// measured over ops operations.
	layers(tr *tracer, ops int64, m metrics)
	// spanCounts returns the program's own running counts of the calls
	// that traced spans wrap (none for workloads whose spans wrap only
	// the benchmark's own calls).
	spanCounts() []spanCount
	// replay runs the isolated per-layer replays on inputs captured from
	// this run, within roughly budget.
	replay(m metrics, budget time.Duration) error
	close()
}

// workload is a named set-up function.
type workload struct {
	setupReps int // set-ups per run; setup_s is their median
	setup     func(cfg config, tr *tracer) (instance, error)
}

var workloads = map[string]*workload{}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// check is a run's operation and correctness accounting.
type check struct {
	attempted, failed int64
	problems          []string
}

func (c *check) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *check) merge(o check) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
}

// samples is a growable list of latencies.
type samples struct{ v []float64 }

func (s *samples) add(x float64) { s.v = append(s.v, x) }
func (s *samples) reset()        { s.v = s.v[:0] }

// quantile returns the q-quantile by linear interpolation (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	v := append([]float64(nil), s.v...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 {
	s := samples{v: v}
	return s.quantile(0.5)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setupOnce sets the workload up and returns the instance, its set-up
// seconds and heap bytes. Each set-up starts from a collected heap whose
// free memory has been returned to the OS, as in a fresh process: the
// set-up pays the page faults of what it allocates, every time.
func setupOnce(w *workload, cfg config, tr *tracer) (instance, float64, float64, error) {
	debug.FreeOSMemory()
	a0 := totalAlloc()
	t0 := time.Now()
	inst, err := w.setup(cfg, tr)
	dt := time.Since(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, dt.Seconds(), float64(totalAlloc() - a0), nil
}

// timing is one timed window's accounting.
type timing struct {
	ops   int64
	steps int64
	wall  time.Duration
}

// meanNs is the window's wall time per operation.
func (t timing) meanNs() float64 { return float64(t.wall.Nanoseconds()) / float64(t.ops) }

// timed steps inst until d has elapsed. If between is set, it is called
// every d/(nBetween+1) between steps, and its time is left out of wall.
func timed(inst instance, d time.Duration, between func() error, nBetween int) (timing, error) {
	var t timing
	var aside time.Duration
	slot := d / time.Duration(nBetween+1)
	next := slot
	start := time.Now()
	for {
		if between != nil && nBetween > 0 && time.Since(start)-aside >= next {
			t0 := time.Now()
			if err := between(); err != nil {
				return t, err
			}
			aside += time.Since(t0)
			next += slot
			nBetween--
		}
		n, err := inst.step()
		if err != nil {
			return t, err
		}
		t.ops += n
		t.steps++
		if time.Since(start)-aside >= d {
			break
		}
	}
	t.wall = time.Since(start) - aside
	return t, nil
}

// plain is one untraced measurement of a workload.
type plain struct {
	timing
	setupS     float64
	allocBytes float64 // set-up plus warmup
	runAlloc   float64 // timed window
	guards     metrics
	figures    metrics
	chk        check
}

// measurePlain sets up, warms up and times a workload untraced. The
// first set-up is the one measured; reps-1 more set-ups are spread over
// the timed window (outside the timed steps), so setup_s, their median,
// samples the host's speed over the whole run rather than at its start.
func measurePlain(w *workload, cfg config, reps int) (plain, error) {
	var p plain
	inst, s0, setupAlloc, err := setupOnce(w, cfg, nil)
	if err != nil {
		return p, err
	}
	defer inst.close()
	setups := []float64{s0}
	extra := func() error {
		other, s, _, err := setupOnce(w, cfg, nil)
		if err != nil {
			return err
		}
		other.close()
		setups = append(setups, s)
		return nil
	}
	a0 := totalAlloc()
	if err := inst.warmup(); err != nil {
		return p, fmt.Errorf("warmup: %w", err)
	}
	p.allocBytes = setupAlloc + float64(totalAlloc()-a0)
	p.guards, _ = inst.modeled()
	a1 := totalAlloc()
	p.timing, err = timed(inst, cfg.dur, extra, reps-1)
	if err != nil {
		return p, err
	}
	p.setupS = median(setups)
	p.runAlloc = float64(totalAlloc() - a1)
	if p.ops == 0 {
		return p, fmt.Errorf("no operations completed")
	}
	p.figures = metrics{}
	inst.figures(p.figures)
	p.chk = inst.finish()
	return p, nil
}

// runPlain reports the end-to-end metrics with tracing off.
func runPlain(w *workload, cfg config) (report, error) {
	p, err := measurePlain(w, cfg, w.setupReps)
	if err != nil {
		return report{}, err
	}
	m := metrics{}
	m.set("host_ns_per_op", p.meanNs(), "ns")
	m.set("setup_s", p.setupS, "s")
	m.set("alloc_mb", p.allocBytes/1e6, "MB")
	side := metrics{}
	for k, v := range p.figures {
		side[k] = v
	}
	for k, v := range p.guards {
		side[k] = v
	}
	side.set("steps", float64(p.steps), "count")
	fmt.Fprintln(os.Stderr, "workload figures (not on the result line):")
	printTable(side)
	return finishReport(p.chk, m), nil
}

func finishReport(chk check, m metrics) report {
	for _, p := range chk.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	return report{
		Correct:   len(chk.problems) == 0 && chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m,
	}
}

// spanCount pairs spanned layers with the program's own count of the
// calls they wrap: frames emitted, delivered by a wire, serviced by an
// engine, transmitted by a module.
type spanCount struct {
	layers  []string
	program int64
}

// Traced-run constants.
const (
	traceEvery = 256 // per-frame/request span records: 1 in traceEvery
	// closureTol bounds |host self-time sum / traced wall − 1|.
	closureTol = 0.05
	// countTol bounds how far a layer's span count may differ from the
	// program's count over the traced window, as a share of it: frames
	// in flight at the window's edges are counted on one side only.
	countTol = 0.01
)

// checkAttribution fails a traced run whose spans do not match the
// program: a layer whose span count differs from the program's count of
// the calls it wraps (a missing or misplaced wrapper), or a span whose
// children cover more than its own duration (mis-nested spans, or a
// parallel section credited more than it took).
func checkAttribution(tr *tracer, before, after []spanCount, chk *check) {
	for i, a := range after {
		want := a.program - before[i].program
		var got int64
		for _, n := range a.layers {
			got += tr.stats(n).count
		}
		if math.Abs(float64(got-want)) > countTol*float64(want) || want == 0 {
			chk.failf("%d %s spans in the traced window, the program counted %d calls", got, strings.Join(a.layers, "+"), want)
		}
	}
	for i, l := range tr.lanes {
		if l.overrun != 0 {
			chk.failf("lane %d: %d spans whose children cover more than their duration", i, l.overrun)
		}
	}
}

// runTraced reports the per-layer split. The run has three phases of
// about a third of the budget each: an untraced reference (the base of
// trace.overhead_frac, and the source of the workload figures), the
// traced window, and the isolated per-layer replays.
func runTraced(w *workload, cfg config, outDir string) (report, error) {
	phase := cfg.dur / 3
	pcfg := cfg
	pcfg.dur = phase
	ref, err := measurePlain(w, pcfg, 1)
	if err != nil {
		return report{}, fmt.Errorf("untraced reference: %w", err)
	}
	chk := ref.chk

	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
	for k, v := range ref.figures {
		m[k] = v
	}
	for k, v := range ref.guards {
		m[k] = v
	}
	m.set("run.alloc_bytes_per_op", ref.runAlloc/float64(ref.ops), "B")
	m.set("run.mean_ns_per_op", ref.meanNs(), "ns")

	tr := newTracer(traceEvery)
	tr.lane(0)
	inst, _, _, err := setupOnce(w, cfg, tr)
	if err != nil {
		return report{}, err
	}
	defer inst.close()
	if err := inst.warmup(); err != nil {
		return report{}, fmt.Errorf("traced warmup: %w", err)
	}
	tr.reset()
	counts0 := inst.spanCounts()
	tt, err := timed(inst, phase, nil, 0)
	if err != nil {
		return report{}, err
	}
	checkAttribution(tr, counts0, inst.spanCounts(), &chk)
	closure := float64(tr.hostSelf()) / float64(tt.wall.Nanoseconds())
	inst.layers(tr, tt.ops, m)
	tchk := inst.finish()
	tchk.attempted, tchk.failed = 0, 0 // operations are counted once, in the reference phase
	chk.merge(tchk)

	m.set("trace.overhead_frac", (tt.meanNs()-ref.meanNs())/ref.meanNs(), "ratio")
	m.set("trace.self_sum_frac", closure, "ratio")
	if math.Abs(closure-1) > closureTol {
		chk.failf("traced self times sum to %.3f of the traced wall time (tolerance ±%.2f)", closure, closureTol)
	}
	if err := tr.dump(outDir, "spans-"+workloadName(w)+".jsonl"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	if err := inst.replay(m, phase); err != nil {
		return report{}, fmt.Errorf("replay: %w", err)
	}
	for k := range m {
		if _, ok := perLayerUnits[k]; !ok {
			return report{}, fmt.Errorf("metric %q is not in the per-layer list", k)
		}
	}
	return finishReport(chk, m), nil
}

func workloadName(w *workload) string {
	for n, x := range workloads {
		if x == w {
			return n
		}
	}
	return "unknown"
}

// reset clears all accounting and records after a warmup.
func (t *tracer) reset() {
	for _, l := range t.lanes {
		for i := range l.total {
			l.total[i], l.self[i], l.count[i], l.kids[i] = 0, 0, 0, 0
		}
		l.root, l.parallel, l.overrun = 0, 0, 0
		l.spans = l.spans[:0]
	}
}
