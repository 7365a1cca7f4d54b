package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
)

// catalog: every registry app, each built fresh from its canonical
// config on a private simulator and driven for an equal frame count with
// its matched traffic profile (the catalog experiment's pairing).
const (
	catFramesPerStep = 512 // frames per app per step
	catWarmupPasses  = 4
	catCapture       = 1024 // frames kept per app for replays
	// catLoad is the offered fraction of each profile's wire rate: at
	// exactly 100% a mixed-size stream's wire queue is a random walk that
	// grows without bound over a long run.
	catLoad = 0.99
)

func init() {
	workloads["catalog"] = &workload{
		setupReps: 45,
		setup:     setupCatalog,
	}
}

// catalogProfile mirrors the catalog experiment's app → profile match.
func catalogProfile(app string) trafficgen.Profile {
	switch app {
	case "arpguard":
		return trafficgen.ProfileARPStorm
	case "dhcpsnoop":
		return trafficgen.ProfileDHCPChurn
	case "dnsblock", "dohblock":
		return trafficgen.ProfileDNSEdge
	}
	return trafficgen.ProfileElephantMice
}

type catApp struct {
	name    string
	cfg     any
	sim     *netsim.Simulator
	mod     *core.Module
	wire    *netsim.Link
	gen     *trafficgen.Generator
	window  netsim.Duration // simulated time of catFramesPerStep frames
	sinks   uint64          // frames the module transmitted
	capture [][]byte
	tap     *tap
	handle  int
}

type catalog struct {
	apps   []*catApp
	next   int // app the next step drives
	warmed []ppe.EngineStats
	warmTx uint64
	warmS  float64
	l      *lane
	run    int
}

func setupCatalog(cfg config, tr *tracer) (instance, error) {
	w := &catalog{}
	if tr != nil {
		w.l = tr.lane(0)
		w.run = tr.layer("netsim.run")
	}
	for i, name := range catalogApps {
		a, err := newCatApp(cfg.seed, i, name, tr, w.l)
		if err != nil {
			return nil, err
		}
		w.apps = append(w.apps, a)
	}
	return w, nil
}

func newCatApp(seed int64, i int, name string, tr *tracer, l *lane) (*catApp, error) {
	cfg, err := apps.CanonicalConfig(name)
	if err != nil {
		return nil, err
	}
	a := &catApp{name: name, cfg: cfg, sim: build.NewSim(seed + int64(i))}
	a.mod, _, err = build.Module(a.sim, build.ModuleSpec{
		Name: "cat-" + name, DeviceID: 1, Shell: hls.TwoWayCore, App: name, Config: cfg,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	tmpl, err := trafficgen.ProfileTemplates(catalogProfile(name), 0)
	if err != nil {
		return nil, err
	}
	// The offered rate is catLoad of the wire rate at the profile's mean
	// frame size (weighted over its templates).
	var bytes, weight float64
	for _, t := range tmpl {
		bytes += float64(t.Weight * len(t.Frame))
		weight += float64(t.Weight)
	}
	pps := catLoad * 10e9 / ((bytes/weight + 20) * 8)
	a.window = netsim.Duration(float64(catFramesPerStep) / pps * float64(netsim.Second))

	sink := func(b []byte) {
		a.sinks++
		trafficgen.PutBuffer(b)
	}
	rx := a.mod.RxEdge
	if tr != nil {
		a.tap = newTap(tr, l, i, a.mod)
		rx = a.tap.rxFn(rx)
		sink = a.tap.sinkFn(sink)
		a.handle = tr.layer("app." + name + ".handle")
		a.tap.wrapHandler(a.mod, func(*ppe.Ctx) int { return a.handle })
	}
	a.mod.SetTx(core.PortOptical, sink)
	a.mod.SetTx(core.PortEdge, sink)
	a.wire = netsim.NewLink(a.sim, 10_000_000_000, 0, rx)
	send := a.wire.Send
	if tr != nil {
		send = a.tap.sendFn(send)
		inner := send
		send = func(b []byte) bool {
			if len(a.capture) < catCapture && a.tap.seq%4 == 0 {
				a.capture = append(a.capture, append([]byte(nil), b...))
			}
			return inner(b)
		}
	}
	a.gen = trafficgen.New(a.sim, trafficgen.Config{PPS: pps, Templates: tmpl, Rand: rand.New(rand.NewSource(seed + int64(i)))}, send)
	a.gen.Run(0)
	return a, nil
}

// drive runs app i for one window and returns the frames offered.
func (w *catalog) drive(i int) int64 {
	a := w.apps[i]
	before := a.gen.Sent
	if w.l != nil {
		w.l.begin(w.run, rootID(uint64(i)<<32|a.gen.Sent))
		a.sim.RunFor(a.window)
		w.l.end()
	} else {
		a.sim.RunFor(a.window)
	}
	return int64(a.gen.Sent - before)
}

func (w *catalog) warmup() error {
	for p := 0; p < catWarmupPasses; p++ {
		for i := range w.apps {
			w.drive(i)
		}
	}
	for _, a := range w.apps {
		st := a.mod.Engine().Stats()
		w.warmed = append(w.warmed, st)
		w.warmTx += st.Pass + st.Tx
		w.warmS += float64(catWarmupPasses) * a.window.Seconds()
	}
	return nil
}

func (w *catalog) modeled() (metrics, string) {
	m := metrics{}
	m.set("workload.modeled_mpps", float64(w.warmTx)/w.warmS/1e6, "Mpps")
	var b strings.Builder
	for i, a := range w.apps {
		fmt.Fprintf(&b, "%s=%+v\n", a.name, w.warmed[i])
	}
	return m, b.String()
}

// step drives the apps round-robin, one window each, so every app gets
// the same frame count to within one window.
func (w *catalog) step() (int64, error) {
	i := w.next
	w.next = (w.next + 1) % len(w.apps)
	return w.drive(i), nil
}

func (w *catalog) figures(metrics) {}

func (w *catalog) finish() check {
	var c check
	for _, a := range w.apps {
		a.gen.Stop()
		// Every offered frame ends in a modeled outcome: transmitted, a
		// verdict drop or punt, or a PPE queue drop (the compute-bound XDP
		// program's modeled overload). Drain until the wire's backlog is
		// through, or for at most 10 ms simulated.
		offered := a.gen.Sent
		var st ppe.EngineStats
		var accounted uint64
		for i := 0; i < 50; i++ {
			a.sim.RunFor(200 * netsim.Microsecond)
			st = a.mod.Engine().Stats()
			if accounted = st.Pass + st.Tx + st.Redirect + st.Drop + st.ToCPU + st.QueueDrop; accounted >= offered {
				break
			}
		}
		c.attempted += int64(offered)
		if accounted < offered {
			c.failed += int64(offered - accounted)
			c.failf("catalog %s: %d of %d offered frames unaccounted", a.name, offered-accounted, offered)
		}
		if a.sinks != st.Pass+st.Tx {
			c.failf("catalog %s: module transmitted %d frames, engine passed %d", a.name, a.sinks, st.Pass+st.Tx)
		}
		if d := a.wire.Stats().Drops; d != 0 {
			c.failf("catalog %s: %d wire drops", a.name, d)
		}
	}
	return c
}

func (w *catalog) layers(tr *tracer, ops int64, m metrics) {
	var in, qd int64
	for _, a := range w.apps {
		m.set("app."+a.name+".handle_ns", tr.perCall("app."+a.name+".handle"), "ns")
		st := a.mod.Engine().Stats()
		in += int64(st.In)
		qd += int64(st.QueueDrop)
	}
	m.set("netsim.loop_self_ns", tr.netSelf("netsim.run")/float64(ops), "ns")
	m.set("netsim.link.send_ns", tr.perCall("netsim.link.send"), "ns")
	m.set("core.rx_ns", tr.perCall("core.rx"), "ns")
	m.set("ppe.frames_in", float64(in), "count")
	m.set("ppe.queue_drops", float64(qd), "count")
	var fired, sent uint64
	for _, a := range w.apps {
		fired += a.sim.Fired()
		sent += a.gen.Sent
	}
	m.set("netsim.events_per_frame", float64(fired)/float64(sent), "count")
}

func (w *catalog) spanCounts() []spanCount {
	var sent, rx, tx int64
	var c []spanCount
	for _, a := range w.apps {
		sent += int64(a.gen.Sent)
		rx += int64(a.wire.Stats().TxFrames)
		tx += int64(a.sinks)
		c = append(c, spanCount{[]string{"app." + a.name + ".handle"}, processed(a.mod.Engine().Stats())})
	}
	return append(c,
		spanCount{[]string{"netsim.link.send"}, sent},
		spanCount{[]string{"core.rx"}, rx},
		spanCount{[]string{"bench.sink"}, tx})
}

func (w *catalog) replay(m metrics, budget time.Duration) error {
	each := budget / 4
	byProfile := map[trafficgen.Profile][][]byte{}
	var specs []build.ModuleSpec
	for _, a := range w.apps {
		p := catalogProfile(a.name)
		byProfile[p] = append(byProfile[p], a.capture...)
		specs = append(specs, build.ModuleSpec{Name: "cat-" + a.name, Shell: hls.TwoWayCore, App: a.name, Config: a.cfg})
	}
	for p, frames := range byProfile {
		m.set("packet.view_ns."+string(p), replayView(frames, each/4), "ns")
	}
	per := each / time.Duration(len(w.apps))
	for _, a := range w.apps {
		_, alloc, err := replayHandler(a.name, a.cfg, a.capture, per/4)
		if err != nil {
			return err
		}
		m.set("app."+a.name+".alloc_bytes_per_frame", alloc, "B")
	}
	xdpCfg := apps.XDPConfig{Program: *apps.CanonicalXDPProgram()}
	if err := xdpCfg.Program.Verify(); err != nil {
		return fmt.Errorf("xdp verify: %w", err)
	}
	m.set("xdp.run_ns", replayXDP(&xdpCfg.Program, byProfile[catalogProfile("xdp")], each), "ns")
	return replaySetup(m, each, specs...)
}

func (w *catalog) close() {}
