package main

import (
	"flexsfp/internal/core"
	"flexsfp/internal/ppe"
)

// tap wraps one module's datapath entry points with spans, from outside
// the program: the traffic source's send into the wire, the wire's
// delivery into Module.RxEdge, the app's ppe.Handler, and the module's tx
// sink. Frame ids ride order-preserving rings from hop to hop (a link
// and a PPE pipeline are FIFO), so a sampled frame's spans share an id.
// Frames arriving on the optical side come through simulator portals
// whose delivery is fixed when the topology is built, so they have no
// receive span and get fresh ids at the handler.
type tap struct {
	l     *lane
	tr    *tracer
	eng   interface{ Stats() ppe.EngineStats }
	base  uint64 // id prefix distinguishing this tap's frames
	seq   uint64 // frames entering via send
	opt   uint64 // frames reaching the handler from the optical side
	toRx  *idRing
	toPPE *idRing
	cur   uint64 // id of the frame whose handler ran last (tx follows it)

	send, rx, sink int
}

func newTap(tr *tracer, l *lane, index int, mod *core.Module) *tap {
	return &tap{
		l: l, tr: tr, eng: mod.Engine(), base: uint64(index+1) << 40,
		toRx: newIDRing(256), toPPE: newIDRing(256),
		send: tr.layer("netsim.link.send"),
		rx:   tr.layer("core.rx"),
		sink: tr.layer("bench.sink"),
	}
}

func (t *tap) id(seq uint64) uint64 {
	if s := t.tr.sample(seq); s != 0 {
		return t.base | s
	}
	return 0
}

// sendFn wraps a wire's Send (the generator's sink).
func (t *tap) sendFn(send func([]byte) bool) func([]byte) bool {
	return func(b []byte) bool {
		t.seq++
		id := t.id(t.seq)
		t.l.begin(t.send, id)
		ok := send(b)
		t.l.end()
		if ok {
			t.toRx.push(id)
		}
		return ok
	}
}

// rxFn wraps the module receive function the tapped wire delivers to.
func (t *tap) rxFn(rx func([]byte)) func([]byte) {
	return func(b []byte) {
		id := t.toRx.pop()
		t.l.begin(t.rx, id)
		in := t.eng.Stats().In
		rx(b)
		if t.eng.Stats().In != in {
			t.toPPE.push(id)
		}
		t.l.end()
	}
}

// wrapHandler replaces the module's running program's handler with a
// spanned one; layer picks the span's layer per frame.
func (t *tap) wrapHandler(mod *core.Module, layer func(ctx *ppe.Ctx) int) {
	prog := mod.Engine().Program()
	orig := prog.Handler
	prog.Handler = ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
		if ctx.Dir == ppe.DirEdgeToOptical {
			t.cur = t.toPPE.pop()
		} else {
			t.opt++
			t.cur = t.id(t.opt) | 1<<39
		}
		t.l.begin(layer(ctx), t.cur)
		v := orig.HandlePacket(ctx)
		t.l.end()
		return v
	})
}

// sinkFn wraps a module tx sink.
func (t *tap) sinkFn(fn func([]byte)) func([]byte) {
	return func(b []byte) {
		t.l.begin(t.sink, t.cur)
		fn(b)
		t.l.end()
	}
}
