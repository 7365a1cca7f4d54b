package main

import (
	"encoding/json"
	"fmt"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
	"flexsfp/internal/xdp"
)

// Isolated per-layer replays: inputs captured from the seeded run are
// fed straight into one layer's public function, for the layers whose
// cost spans from outside cannot separate (a parse inside a handler, a
// table lookup inside a parse-and-rewrite, a codec inside an RPC).

// replayLoop calls fn over n inputs in rounds until budget has passed
// (at least one round) and returns the median per-call ns of the rounds.
func replayLoop(n int, budget time.Duration, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	start := time.Now()
	for len(per) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// replayView times packet.View.Parse per frame.
func replayView(frames [][]byte, budget time.Duration) float64 {
	var v packet.View
	return replayLoop(len(frames), budget, func(i int) { v.Parse(frames[i]) })
}

// srcKeys extracts the IPv4 source addresses of frames.
func srcKeys(frames [][]byte) [][]byte {
	var v packet.View
	var keys [][]byte
	for _, f := range frames {
		if v.Parse(f) && v.IsIPv4 {
			keys = append(keys, append([]byte(nil), v.SrcIPv4()...))
		}
	}
	return keys
}

// replayLookup times ppe.Table.Lookup per key.
func replayLookup(t *ppe.Table, keys [][]byte, budget time.Duration) float64 {
	return replayLoop(len(keys), budget, func(i int) { t.Lookup(keys[i]) })
}

// replayTableWrites times ppe.Table.Add then Delete per key on a fresh
// table of spec, in rounds; it returns the median µs per Add and per
// Delete.
func replayTableWrites(spec ppe.TableSpec, keys, values [][]byte, budget time.Duration) (float64, float64, error) {
	if len(keys) == 0 {
		return 0, 0, nil
	}
	t := ppe.NewTable(spec)
	var adds, dels []float64
	start := time.Now()
	for len(adds) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		for i, k := range keys {
			if err := t.Add(k, values[i]); err != nil {
				return 0, 0, fmt.Errorf("table add: %w", err)
			}
		}
		t1 := time.Now()
		for _, k := range keys {
			if err := t.Delete(k); err != nil {
				return 0, 0, fmt.Errorf("table delete: %w", err)
			}
		}
		n := float64(len(keys))
		adds = append(adds, us(t1.Sub(t0))/n)
		dels = append(dels, us(time.Since(t1))/n)
	}
	return median(adds), median(dels), nil
}

// replayEmit times trafficgen emission into a counting sink: host ns per
// emitted frame, event loop included.
func replayEmit(cfg trafficgen.Config, budget time.Duration) float64 {
	const n = 50_000
	var per []float64
	start := time.Now()
	for len(per) == 0 || time.Since(start) < budget {
		sim := netsim.New(1)
		var count uint64
		gen := trafficgen.New(sim, cfg, func(b []byte) bool {
			count++
			trafficgen.PutBuffer(b)
			return true
		})
		gen.Run(n)
		t0 := time.Now()
		sim.Run()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(count))
	}
	return median(per)
}

// replayHandler runs frames through a freshly configured instance of
// app's ppe.Handler and returns ns and heap bytes per frame.
func replayHandler(app string, cfg any, frames [][]byte, budget time.Duration) (float64, float64, error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	a, err := apps.NewRegistry().New(app)
	if err != nil {
		return 0, 0, err
	}
	js, err := json.Marshal(cfg)
	if err != nil {
		return 0, 0, err
	}
	if err := a.Configure(js); err != nil {
		return 0, 0, fmt.Errorf("configure %s: %w", app, err)
	}
	h := a.Program().Handler
	buf := make([]byte, 0, 2048)
	ctx := &ppe.Ctx{} // one context, so the replay itself allocates nothing
	one := func(i int) {
		buf = append(buf[:0], frames[i]...)
		*ctx = ppe.Ctx{Data: buf, Dir: ppe.DirEdgeToOptical}
		h.HandlePacket(ctx)
	}
	one(0)
	a0 := totalAlloc()
	for i := range frames {
		one(i)
	}
	alloc := float64(totalAlloc()-a0) / float64(len(frames))
	return replayLoop(len(frames), budget, one), alloc, nil
}

// replayXDP times xdp.Program.Run per frame.
func replayXDP(p *xdp.Program, frames [][]byte, budget time.Duration) float64 {
	return replayLoop(len(frames), budget, func(i int) { p.Run(frames[i]) })
}

// replaySetup repeats the public steps build.Module performs for every
// spec (configure, HLS compile, bitstream encode, module install, boot)
// until budget has passed, and reports each step's median time per
// set-up (all specs together) and the allocation of configure and boot.
func replaySetup(m metrics, budget time.Duration, specs ...build.ModuleSpec) error {
	var cfgT, hlsT, encT, instT, bootT, cfgA, bootA []float64
	start := time.Now()
	for len(cfgT) == 0 || (time.Since(start) < budget && len(cfgT) < 9) {
		var c, h, e, in, b, ca, ba float64
		for _, spec := range specs {
			js, err := json.Marshal(spec.Config)
			if err != nil {
				return err
			}
			reg := apps.NewRegistry()
			a0 := totalAlloc()
			t0 := time.Now()
			app, err := reg.New(spec.App)
			if err != nil {
				return err
			}
			if err := app.Configure(js); err != nil {
				return fmt.Errorf("configure %s: %w", spec.App, err)
			}
			t1 := time.Now()
			ca += float64(totalAlloc() - a0)
			design, err := hls.Compile(app.Program(), hls.Options{
				Device: fpga.MPF200T, Shell: spec.Shell,
				ClockHz: build.BaseClockHz, DatapathBits: build.BaseDatapathBits, Config: js,
			})
			if err != nil {
				return fmt.Errorf("compile %s: %w", spec.App, err)
			}
			t2 := time.Now()
			encoded, err := design.Bitstream.Encode()
			if err != nil {
				return err
			}
			t3 := time.Now()
			mod := core.NewModule(core.Config{
				Sim: netsim.New(1), Name: spec.Name, DeviceID: 1, Shell: spec.Shell,
				Registry: reg, AuthKey: build.DefaultAuthKey, DeviceName: fpga.MPF200T.Name,
			})
			if _, err := mod.Install(1, encoded); err != nil {
				return fmt.Errorf("install %s: %w", spec.App, err)
			}
			t4 := time.Now()
			a1 := totalAlloc()
			t5 := time.Now()
			if err := mod.BootSync(1); err != nil {
				return fmt.Errorf("boot %s: %w", spec.App, err)
			}
			t6 := time.Now()
			ba += float64(totalAlloc() - a1)
			c += float64(t1.Sub(t0).Nanoseconds())
			h += float64(t2.Sub(t1).Nanoseconds())
			e += float64(t3.Sub(t2).Nanoseconds())
			in += float64(t4.Sub(t3).Nanoseconds())
			b += float64(t6.Sub(t5).Nanoseconds())
		}
		cfgT, hlsT, encT = append(cfgT, c/1e6), append(hlsT, h/1e6), append(encT, e/1e6)
		instT, bootT = append(instT, in/1e6), append(bootT, b/1e6)
		cfgA, bootA = append(cfgA, ca/1e6), append(bootA, ba/1e6)
	}
	m.set("setup.configure_ms", median(cfgT), "ms")
	m.set("setup.hls_compile_ms", median(hlsT), "ms")
	m.set("setup.bitstream_encode_ms", median(encT), "ms")
	m.set("setup.install_ms", median(instT), "ms")
	m.set("setup.boot_ms", median(bootT), "ms")
	m.set("setup.configure_alloc_mb", median(cfgA), "MB")
	m.set("setup.boot_alloc_mb", median(bootA), "MB")
	return nil
}
