package main

import "encoding/json"

// metricDef declares one metric. BENCHMARK.json repeats these tables; the
// smoke test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the system sees, the same on every workload.
// Bound is the share of the parent's median by which a metric may worsen.
//
// sim_* are virtual time — a count of modelled microseconds, not a clock —
// so they repeat exactly wherever request order does not matter; their unit
// says so, lest an exactly repeating value be taken for a stuck timer.
var endToEnd = []metricDef{
	{"ops_per_s", "objects/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"sim_read_mean_us", "sim_us", "lower", 0.03},
	{"sim_read_p99_us", "sim_us", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.05},
	{"hit_ratio_pct", "%", "higher", 0.05},
	{"system_write_amp", "ratio", "lower", 0.15},
	{"space_efficiency_pct", "%", "higher", 0.05},
	{"mem_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// deterministic are the counter-derived metrics that must repeat exactly
// for one seed on the single-caller workloads.
var deterministic = []string{"hit_ratio_pct", "sim_read_mean_us", "sim_read_p99_us", "system_write_amp", "space_efficiency_pct"}

// perLayer is what the traced run reports, layer by layer. A layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "cache.read_hit_self_us", Unit: "us", Better: "lower"},
	{Name: "cache.read_miss_self_us", Unit: "us", Better: "lower"},
	{Name: "cache.write_self_us", Unit: "us", Better: "lower"},
	{Name: "cache.batch_self_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "cache.refresh_pause_us_mean", Unit: "us", Better: "lower"},
	{Name: "cache.refresh_pause_us_max", Unit: "us", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.flushes", Unit: "count", Better: "lower"},
	{Name: "cache.reclassified", Unit: "count", Better: "lower"},
	{Name: "cache.retries", Unit: "count", Better: "lower"},

	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.get_degraded_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_batch_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "store.put_batch_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "store.reclassify_us", Unit: "us", Better: "lower"},
	{Name: "store.gets", Unit: "count", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower"},
	{Name: "store.degraded_get_pct", Unit: "%", Better: "lower"},

	{Name: "stripe.read_us", Unit: "us", Better: "lower"},
	{Name: "stripe.read_degraded_us", Unit: "us", Better: "lower"},
	{Name: "stripe.write_repl_us", Unit: "us", Better: "lower"},
	{Name: "stripe.write_parity_us", Unit: "us", Better: "lower"},
	{Name: "stripe.write_plain_us", Unit: "us", Better: "lower"},

	{Name: "erasure.encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "erasure.reconstruct1_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "erasure.reconstruct2_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.muladd_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.muladd_matrix_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "flash.read_us", Unit: "us", Better: "lower"},
	{Name: "flash.write_us", Unit: "us", Better: "lower"},
	{Name: "flash.log_write_us", Unit: "us", Better: "lower"},
	{Name: "flash.gc_collect_us", Unit: "us", Better: "lower"},
	{Name: "flash.bytes_programmed", Unit: "B", Better: "lower"},
	{Name: "flash.bytes_read", Unit: "B", Better: "lower"},
	{Name: "flash.gc_moved_bytes", Unit: "B", Better: "lower"},
	{Name: "flash.erases", Unit: "count", Better: "lower"},
	{Name: "flash.garbage_pct", Unit: "%", Better: "lower"},

	{Name: "backend.get_us", Unit: "us", Better: "lower"},
	{Name: "backend.gets", Unit: "count", Better: "lower"},
	{Name: "backend.puts", Unit: "count", Better: "lower"},

	{Name: "transport.get_batch_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "transport.put_batch_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "transport.sub_ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "transport.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "transport.bytes_per_flush", Unit: "B", Better: "higher"},
	{Name: "transport.lease_imbalance", Unit: "count", Better: "lower"},
	{Name: "transport.spans", Unit: "count", Better: "lower"},
	{Name: "transport.stats_us", Unit: "us", Better: "lower"},
	{Name: "transport.get_us", Unit: "us", Better: "lower"},
	{Name: "transport.put_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.codec_ns_per_pdu", Unit: "ns", Better: "lower"},

	{Name: "cluster.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "cluster.fanout_width", Unit: "count", Better: "lower"},
	{Name: "cluster.sub_ops_per_call", Unit: "count", Better: "higher"},
	{Name: "cluster.partial_failures", Unit: "count", Better: "lower"},
	{Name: "cluster.spans", Unit: "count", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},

	{Name: "bufpool.outstanding", Unit: "count", Better: "lower"},
	{Name: "reo.read_hit_us", Unit: "us", Better: "lower"},
	{Name: "reo.read_hit_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "wall.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "wall.read_p99_samples_beyond", Unit: "count", Better: "higher"},
	{Name: "wall.read_samples", Unit: "count", Better: "higher"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_total", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},
}

// runSeconds is the length the driver passes: with three set-ups of about
// 3 s a run of any workload stays under 30 s on the reference box, and the
// driver's 4 + 22 × 4 runs under its limit with a fifth to spare.
const runSeconds = 16

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// the driver reads cannot drift from what the benchmark prints.
func manifestJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadDef{s.name, s.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables are static: only a bug can make them unmarshalable
	}
	return append(out, '\n')
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs values with their declared units; a metric the caller did
// not set reports 0.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
