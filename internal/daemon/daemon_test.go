package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"flexsfp/internal/telemetry"
)

func startTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "close-test", App: "acl",
		Shell: "two-way-core", Telemetry: true, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCloseShutsDownMetricsServer: Close must gracefully stop the
// metrics HTTP server — the serve goroutine exits (no leak), and the
// port stops accepting connections.
func TestCloseShutsDownMetricsServer(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startTestDaemon(t)

	addr := d.MetricsAddr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics before close: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics port still serving after Close")
	}
	http.DefaultClient.CloseIdleConnections()

	// The serve goroutine (and the mgmt accept loop) must be gone. Other
	// runtime goroutines wind down asynchronously, so poll back to the
	// pre-Start baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Start, %d after Close — serve loop leaked",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseWithoutMetrics: a daemon without the HTTP endpoint closes
// cleanly through the same path.
func TestCloseWithoutMetrics(t *testing.T) {
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "close-test-2", App: "acl",
		Shell: "two-way-core",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSimShardsIsPlacementOnly: SimShards moves the traffic source
// between shards but must not change what the module sees. Every PPE
// counter and histogram and every module gauge is identical at any shard
// count. The sim.* metrics and the ppe.utilization gauge are left out:
// they read shard 0's own clock and event count, which depend on whether
// the generator shares shard 0 with the module.
func TestSimShardsIsPlacementOnly(t *testing.T) {
	placed := func(shards int) (telemetry.Snapshot, string) {
		d, err := Start(Config{
			Listen: "127.0.0.1:0", Name: "placement", DeviceID: 3, App: "nat",
			Shell: "two-way-core", Telemetry: true, TrafficPPS: 1000,
			Seed: 11, SimShards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		snap := d.Registry().Snapshot()
		var keep telemetry.Snapshot
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "ppe.") {
				keep.Counters = append(keep.Counters, c)
			}
		}
		for _, h := range snap.Histograms {
			if strings.HasPrefix(h.Name, "ppe.") {
				keep.Histograms = append(keep.Histograms, h)
			}
		}
		for _, g := range snap.Gauges {
			if strings.HasPrefix(g.Name, "module.") {
				keep.Gauges = append(keep.Gauges, g)
			}
		}
		raw, err := json.Marshal(keep)
		if err != nil {
			t.Fatal(err)
		}
		return keep, string(raw)
	}
	refSnap, ref := placed(0)
	if n, _ := refSnap.Counter("ppe.frames_in"); n == 0 {
		t.Fatalf("no traffic reached the PPE: %s", ref)
	}
	if _, ok := refSnap.Histogram("ppe.latency_ns"); !ok {
		t.Fatalf("ppe.latency_ns missing: %s", ref)
	}
	if _, ok := refSnap.Gauge("module.boots"); !ok {
		t.Fatalf("module gauges missing: %s", ref)
	}
	for _, shards := range []int{1, 2, 4} {
		if _, got := placed(shards); got != ref {
			t.Fatalf("SimShards=%d changed the module's metrics\nSimShards=0: %s\nSimShards=%d: %s",
				shards, ref, shards, got)
		}
	}
}
