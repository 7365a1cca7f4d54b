package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
)

// nat64: the §5.1 line-rate test at its hardest point — one canonical
// NAT cable (TwoWayCore) behind a 10G wire, 64 B frames over 32 flows at
// 14.88 Mpps modeled, on one single-heap simulator. One module, no XDP,
// no table writes after set-up.
const (
	natFlows         = 32
	natFrameBytes    = 64
	natWindow        = 100 * netsim.Microsecond // one step
	natWarmupWindows = 100                      // 10 ms simulated reference
	natCheckEvery    = 1024                     // rewrite check sampling
	natCapture       = 4096                     // frames kept for replays
)

func init() {
	workloads["nat64"] = &workload{
		setupReps: 60,
		setup:     setupNat64,
	}
}

type nat64 struct {
	sim  *netsim.Simulator
	mod  *core.Module
	wire *netsim.Link
	gen  *trafficgen.Generator
	cfg  apps.NATConfig
	ext  [natFlows][4]byte // expected source address after rewrite, by flow

	// Modeled latency: wire-send sim time per frame in a FIFO (NAT
	// neither reorders nor drops), popped at module tx.
	sent       *idRing
	recordLat  bool
	lat        []int64
	delivered  uint64
	warmFrames uint64
	checked    uint64
	badRewrite uint64
	view       packet.View

	capture [][]byte

	// Traced instances only.
	l   *lane
	tap *tap
	run int
}

// natMappings derives the 32 flow translations from the seed.
func natMappings(seed int64) (apps.NATConfig, [natFlows][4]byte) {
	rng := rand.New(rand.NewSource(seed))
	var cfg apps.NATConfig
	var ext [natFlows][4]byte
	used := map[[4]byte]bool{}
	for f := 0; f < natFlows; f++ {
		var e [4]byte
		for {
			e = [4]byte{100, byte(64 + rng.Intn(64)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}
			if !used[e] {
				break
			}
		}
		used[e] = true
		ext[f] = e
		// trafficgen varies flow f's source as 10.1.0.1 with the low
		// bytes XORed by f.
		in := netip.AddrFrom4([4]byte{10, 1, 0, byte(1 ^ f)})
		cfg.Mappings = append(cfg.Mappings, apps.NATMapping{Internal: in.String(), External: netip.AddrFrom4(e).String()})
	}
	return cfg, ext
}

func setupNat64(cfg config, tr *tracer) (instance, error) {
	w := &nat64{sim: build.NewSim(cfg.seed), sent: newIDRing(1024)}
	w.cfg, w.ext = natMappings(cfg.seed)
	mod, _, err := build.Module(w.sim, build.ModuleSpec{
		Name: "nat64", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat", Config: w.cfg,
	})
	if err != nil {
		return nil, err
	}
	w.mod = mod
	rx := mod.RxEdge
	sink := w.sink
	if tr != nil {
		w.l = tr.lane(0)
		w.run = tr.layer("netsim.run")
		w.tap = newTap(tr, w.l, 0, mod)
		rx = w.tap.rxFn(rx)
		sink = w.tap.sinkFn(sink)
		nat := tr.layer("app.nat.handle")
		w.tap.wrapHandler(mod, func(*ppe.Ctx) int { return nat })
	}
	mod.SetTx(core.PortOptical, sink)
	mod.SetTx(core.PortEdge, trafficgen.PutBuffer)
	w.wire = netsim.NewLink(w.sim, 10_000_000_000, 0, rx)
	// The wire delivers at tx-done, never inside Send, so the stamp is
	// pushed after the frame is accepted.
	send := func(b []byte) bool {
		if !w.wire.Send(b) {
			return false
		}
		w.sent.push(uint64(w.sim.Now()))
		return true
	}
	if tr != nil {
		send = w.tap.sendFn(send)
		inner := send
		send = func(b []byte) bool {
			if len(w.capture) < natCapture && w.tap.seq%16 == 0 {
				w.capture = append(w.capture, append([]byte(nil), b...))
			}
			return inner(b)
		}
	}
	// 10G line rate on the simulator's nanosecond grid: the generator's
	// gap is whole ns, so 67.2 ns (14.88 Mpps) would round down to 67 ns
	// and overrun the wire, growing its queue for the whole run. The
	// offered gap is the serialization time rounded up (68 ns).
	pps := 1e9 / math.Ceil(float64((natFrameBytes+20)*8)/10)
	w.gen = trafficgen.New(w.sim, trafficgen.Config{
		PPS: pps, Flows: natFlows, Sizes: []trafficgen.IMIXEntry{{Size: natFrameBytes, Weight: 1}},
	}, send)
	w.gen.Run(0)
	return w, nil
}

// sink is the optical tx: modeled latency, delivery count, and a
// sampled check that the source address was translated.
func (w *nat64) sink(b []byte) {
	t := int64(w.sent.pop())
	if w.recordLat {
		w.lat = append(w.lat, int64(w.sim.Now())-t)
	}
	w.delivered++
	if w.delivered%natCheckEvery == 0 {
		w.checked++
		if !w.view.Parse(b) || !w.view.IsIPv4 {
			w.badRewrite++
		} else if f := int(w.view.SrcPort) - 1024; f < 0 || f >= natFlows || [4]byte(w.view.SrcIPv4()) != w.ext[f] {
			w.badRewrite++
		}
	}
	trafficgen.PutBuffer(b)
}

func (w *nat64) warmup() error {
	w.recordLat = true
	for i := 0; i < natWarmupWindows; i++ {
		w.sim.RunFor(natWindow)
	}
	w.recordLat = false
	w.warmFrames = w.delivered
	return nil
}

func (w *nat64) modeled() (metrics, string) {
	m := metrics{}
	simS := (time.Duration(natWarmupWindows) * time.Duration(natWindow)).Seconds()
	m.set("workload.modeled_mpps", float64(w.warmFrames)/simS/1e6, "Mpps")
	m.set("workload.modeled_p99_ns", quantileInt(w.lat, 0.99), "sim_ns")
	st := w.mod.Engine().Stats()
	return m, fmt.Sprintf("engine=%+v delivered=%d p50=%v p99=%v max=%v",
		st, w.warmFrames, quantileInt(w.lat, 0.5), quantileInt(w.lat, 0.99), quantileInt(w.lat, 1))
}

func quantileInt(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))])
}

func (w *nat64) step() (int64, error) {
	before := w.gen.Sent
	if w.l != nil {
		w.l.begin(w.run, rootID(w.gen.Sent))
		w.sim.RunFor(natWindow)
		w.l.end()
	} else {
		w.sim.RunFor(natWindow)
	}
	return int64(w.gen.Sent - before), nil
}

func (w *nat64) figures(metrics) {}

func (w *nat64) finish() check {
	w.gen.Stop()
	w.sim.RunFor(100 * netsim.Microsecond)
	var c check
	c.attempted = int64(w.gen.Sent)
	c.failed = int64(w.gen.Sent - w.delivered)
	st := w.mod.Engine().Stats()
	if st.QueueDrop != 0 {
		c.failf("nat64: %d PPE queue drops at line rate", st.QueueDrop)
	}
	if d := w.wire.Stats().Drops; d != 0 {
		c.failf("nat64: %d wire drops", d)
	}
	if w.delivered != w.gen.Sent {
		c.failf("nat64: delivered %d of %d offered frames", w.delivered, w.gen.Sent)
	}
	if w.checked == 0 || w.badRewrite != 0 {
		c.failf("nat64: %d of %d sampled output frames not NAT-rewritten", w.badRewrite, w.checked)
	}
	return c
}

func (w *nat64) layers(tr *tracer, ops int64, m metrics) {
	m.set("netsim.loop_self_ns", tr.netSelf("netsim.run")/float64(ops), "ns")
	m.set("netsim.link.send_ns", tr.perCall("netsim.link.send"), "ns")
	m.set("core.rx_ns", tr.perCall("core.rx"), "ns")
	m.set("app.nat.handle_ns", tr.perCall("app.nat.handle"), "ns")
	st := w.mod.Engine().Stats()
	m.set("ppe.frames_in", float64(st.In), "count")
	m.set("ppe.queue_drops", float64(st.QueueDrop), "count")
	m.set("netsim.events_per_frame", float64(w.sim.Fired())/float64(w.gen.Sent), "count")
}

// processed is the frames an engine's handler has run on.
func processed(st ppe.EngineStats) int64 {
	return int64(st.Pass + st.Drop + st.Tx + st.Redirect + st.ToCPU)
}

func (w *nat64) spanCounts() []spanCount {
	return []spanCount{
		{[]string{"netsim.link.send"}, int64(w.gen.Sent)},
		{[]string{"core.rx"}, int64(w.wire.Stats().TxFrames)},
		{[]string{"app.nat.handle"}, processed(w.mod.Engine().Stats())},
		{[]string{"bench.sink"}, int64(w.delivered)},
	}
}

func (w *nat64) replay(m metrics, budget time.Duration) error {
	each := budget / 5
	table, ok := w.mod.App().State().Table("nat")
	if !ok {
		return fmt.Errorf("nat table missing")
	}
	m.set("packet.view_ns.64b-udp", replayView(w.capture, each), "ns")
	m.set("ppe.table.lookup_ns", replayLookup(table, srcKeys(w.capture), each), "ns")
	m.set("trafficgen.emit_ns", replayEmit(trafficgen.Config{
		PPS: 14.88e6, Flows: natFlows, Sizes: []trafficgen.IMIXEntry{{Size: natFrameBytes, Weight: 1}},
	}, each), "ns")
	h, a, err := replayHandler("nat", w.cfg, w.capture, each)
	if err != nil {
		return err
	}
	_ = h
	m.set("app.nat.alloc_bytes_per_frame", a, "B")
	return replaySetup(m, each, build.ModuleSpec{Name: "nat64", Shell: hls.TwoWayCore, App: "nat", Config: w.cfg})
}

func (w *nat64) close() {}
