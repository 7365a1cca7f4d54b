package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"flexsfp/internal/apps"
)

// modeledAfterWarmup sets a workload up untraced, runs its fixed warmup
// and returns its modeled outputs.
func modeledAfterWarmup(t *testing.T, name string, seed int64, shards int) (metrics, string) {
	t.Helper()
	w := workloads[name]
	inst, err := w.setup(config{seed: seed, shards: shards, dur: time.Second}, nil)
	if err != nil {
		t.Fatalf("%s: set-up: %v", name, err)
	}
	defer inst.close()
	if err := inst.warmup(); err != nil {
		t.Fatalf("%s: warmup: %v", name, err)
	}
	return inst.modeled()
}

// TestModeledOutputsDeterministic pins the determinism guard: for a
// fixed seed the modeled outputs — engine counters, modeled Mpps and
// p99, the fleet report, the overlay generation and tables — are
// identical across repeated runs.
func TestModeledOutputsDeterministic(t *testing.T) {
	for _, name := range []string{"nat64", "catalog", "mesh-churn", "control"} {
		t.Run(name, func(t *testing.T) {
			g1, d1 := modeledAfterWarmup(t, name, 7, 2)
			g2, d2 := modeledAfterWarmup(t, name, 7, 2)
			if d1 != d2 {
				t.Errorf("modeled digest differs between runs:\n%s\n---\n%s", d1, d2)
			}
			if !reflect.DeepEqual(g1, g2) {
				t.Errorf("guard metrics differ: %v vs %v", g1, g2)
			}
			if d1 == "" {
				t.Error("empty modeled digest")
			}
		})
	}
}

// TestMeshShardInvariant pins mesh-churn's modeled outputs at one shard
// and at several.
func TestMeshShardInvariant(t *testing.T) {
	g1, d1 := modeledAfterWarmup(t, "mesh-churn", 3, 1)
	for _, shards := range []int{2, 4} {
		g, d := modeledAfterWarmup(t, "mesh-churn", 3, shards)
		if d != d1 {
			t.Errorf("shards=%d: modeled state differs from shards=1:\n%s\n---\n%s", shards, d, d1)
		}
		if !reflect.DeepEqual(g, g1) {
			t.Errorf("shards=%d: guard metrics %v, want %v", shards, g, g1)
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches the generated
// inputs.
func TestSeedChangesInputs(t *testing.T) {
	_, a := modeledAfterWarmup(t, "mesh-churn", 1, 1)
	_, b := modeledAfterWarmup(t, "mesh-churn", 2, 1)
	if a == b {
		t.Error("mesh-churn: seeds 1 and 2 gave identical modeled state")
	}
	c1, _ := natMappings(1)
	c2, _ := natMappings(2)
	if reflect.DeepEqual(c1, c2) {
		t.Error("nat64: seeds 1 and 2 gave identical NAT mappings")
	}
}

// TestRunsCheckAndReport runs every workload briefly, untraced and
// traced, and checks the result line's shape and the correctness checks.
func TestRunsCheckAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"nat64", "catalog", "mesh-churn", "control"} {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 5, shards: 2, dur: 300 * time.Millisecond}
			rep, err := runPlain(workloads[name], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkNames(t, rep.Metrics, endToEnd, true)
			rep, err = runTraced(workloads[name], cfg, "")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced: not correct")
			}
			checkNames(t, rep.Metrics, perLayer, false)
		})
	}
}

func checkNames(t *testing.T, got metrics, want []metricDef, nonzero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("missing metric %s", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if nonzero && m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, m.Value)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// the ones the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	cmp := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, g := range got {
			units[g.Name] = g.Unit
		}
		for _, d := range want {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: the benchmark reports %s (%s); BENCHMARK.json has unit %q (listed: %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	cmp("end_to_end", spec.EndToEnd, endToEnd)
	cmp("per_layer", spec.PerLayer, perLayer)
}

func TestIDRingOrder(t *testing.T) {
	r := newIDRing(2)
	for i := uint64(1); i <= 5; i++ {
		r.push(i)
	}
	for i := uint64(1); i <= 5; i++ {
		if got := r.pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	if r.pop() != 0 {
		t.Fatal("empty ring did not pop 0")
	}
}

// TestSelfTimeAccounting checks that self times of nested spans sum to
// the root's duration.
func TestSelfTimeAccounting(t *testing.T) {
	tr := newTracer(1)
	l := tr.lane(0)
	root, a, b := tr.layer("root"), tr.layer("a"), tr.layer("b")
	l.begin(root, 1)
	for i := 0; i < 100; i++ {
		l.begin(a, 2)
		l.begin(b, 3)
		time.Sleep(10 * time.Microsecond)
		l.end()
		l.end()
	}
	d := l.end()
	if got := tr.hostSelf(); got != d {
		t.Errorf("self times sum to %d ns, root span took %d ns", got, d)
	}
	if s := l.spans[1]; s.Parent != 0 || tr.names[s.Layer] != "a" {
		t.Errorf("span 1 = %+v, want layer a under the root", s)
	}
}

// TestAttributionCheck checks that the traced run's attribution check
// passes matching span counts and fails a layer whose spans miss calls,
// and a span whose children cover more than its duration.
func TestAttributionCheck(t *testing.T) {
	tr := newTracer(1)
	l := tr.lane(0)
	root, rx := tr.layer("root"), tr.layer("core.rx")
	l.begin(root, 0)
	for i := 0; i < 10; i++ {
		l.begin(rx, 0)
		l.end()
	}
	l.end()
	before := []spanCount{{[]string{"core.rx"}, 5}}
	var ok check
	checkAttribution(tr, before, []spanCount{{[]string{"core.rx"}, 15}}, &ok)
	if len(ok.problems) != 0 {
		t.Errorf("matching counts failed: %v", ok.problems)
	}
	var missed check
	checkAttribution(tr, before, []spanCount{{[]string{"core.rx"}, 25}}, &missed)
	if len(missed.problems) != 1 {
		t.Errorf("10 spans for 20 program calls: problems %v, want one", missed.problems)
	}

	l.begin(root, 0)
	l.addChild(int64(time.Hour))
	l.end()
	var over check
	checkAttribution(tr, before, []spanCount{{[]string{"core.rx"}, 15}}, &over)
	if len(over.problems) != 1 {
		t.Errorf("child coverage beyond the parent: problems %v, want one", over.problems)
	}
}

// TestCatalogAppsMatchRegistry keeps the catalog workload's app list
// equal to the registry, sorted.
func TestCatalogAppsMatchRegistry(t *testing.T) {
	names := apps.NewRegistry().Names()
	sort.Strings(names)
	if !reflect.DeepEqual(names, catalogApps) {
		t.Errorf("registry apps %v, catalog workload drives %v", names, catalogApps)
	}
}
