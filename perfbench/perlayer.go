package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// catalogApps is the app registry in sorted order (the catalog
// workload's build order).
var catalogApps = []string{
	"acl", "arpguard", "dhcpsnoop", "dnsblock", "dohblock", "lb", "mesh", "monitor",
	"nat", "netflow", "ratelimit", "sanitize", "telemetry", "tunnel", "vlan", "xdp",
}

// viewProfiles are the frame populations packet.view_ns is replayed on.
var viewProfiles = []string{"64b-udp", "elephant-mice", "arp-storm", "dhcp-churn", "dns-edge", "mesh-outer"}

// agentOps are the management op classes replayed through Agent.Handle.
var agentOps = []string{"table_add", "table_get", "table_del", "table_dump", "stats", "telemetry", "xfer_chunk", "xfer_commit", "reboot"}

// endToEnd is the untraced result line's metric set; every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"host_ns_per_op", "ns"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer is the traced result line's metric set. Every workload
// reports every one; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		// Workload figures from the traced run's untraced reference phase.
		{"workload.modeled_mpps", "Mpps"},
		{"workload.modeled_p99_ns", "sim_ns"},
		{"workload.resync_ms", "ms"},
		{"workload.rpc_p50_us", "us"},
		{"workload.rpc_p99_us", "us"},
		{"workload.rpc_per_s", "1/s"},
		{"workload.ota_push_ms", "ms"},
		{"workload.rollout_s", "s"},
		{"run.alloc_bytes_per_op", "B"},
		{"run.mean_ns_per_op", "ns"},

		{"netsim.loop_self_ns", "ns"},
		{"netsim.events_per_frame", "count"},
		{"netsim.link.send_ns", "ns"},
		{"netsim.sharded.ns_per_event", "ns"},
		{"netsim.sharded.speedup", "ratio"},
		{"trafficgen.emit_ns", "ns"},
		{"core.rx_ns", "ns"},
		{"ppe.table.lookup_ns", "ns"},
		{"ppe.table.add_us", "us"},
		{"ppe.table.del_us", "us"},
		{"ppe.frames_in", "count"},
		{"ppe.queue_drops", "count"},
	}
	for _, a := range catalogApps {
		d = append(d, metricDef{"app." + a + ".handle_ns", "ns"}, metricDef{"app." + a + ".alloc_bytes_per_frame", "B"})
	}
	d = append(d, metricDef{"app.mesh.encap_ns", "ns"}, metricDef{"app.mesh.decap_ns", "ns"})
	for _, p := range viewProfiles {
		d = append(d, metricDef{"packet.view_ns." + p, "ns"})
	}
	d = append(d,
		metricDef{"xdp.run_ns", "ns"},
		metricDef{"setup.configure_ms", "ms"},
		metricDef{"setup.hls_compile_ms", "ms"},
		metricDef{"setup.bitstream_encode_ms", "ms"},
		metricDef{"setup.install_ms", "ms"},
		metricDef{"setup.boot_ms", "ms"},
		metricDef{"setup.configure_alloc_mb", "MB"},
		metricDef{"setup.boot_alloc_mb", "MB"},
		metricDef{"mgmt.codec_ns", "ns"},
	)
	for _, op := range agentOps {
		d = append(d, metricDef{"mgmt.agent." + op + "_us", "us"})
	}
	d = append(d,
		metricDef{"mgmt.transport_us", "us"},
		metricDef{"mgmt.client.retries", "count"},
		metricDef{"bitstream.verify_us", "us"},
		metricDef{"telemetry.snapshot_us", "us"},
		metricDef{"overlay.sync_ms", "ms"},
		metricDef{"overlay.noop_sync_ms", "ms"},
		metricDef{"overlay.rendezvous_handle_us", "us"},
		metricDef{"fleet.push_us", "us"},
		metricDef{"fleet.stats_us", "us"},
		metricDef{"fleet.reboot_us", "us"},
		metricDef{"fleet.wave_self_ms", "ms"},
		metricDef{"fleet.aggregate_ms", "ms"},
		metricDef{"fleet.waves", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.self_sum_frac", "ratio"},
	)
	return d
}()

var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()
