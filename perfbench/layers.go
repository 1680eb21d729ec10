package main

// The per-layer metrics of a traced run, with units. Every traced run
// reports all of them; a layer the workload does not reach reports 0
// (README.md lists which workload moves which metric). Times are medians
// over the run's traced repetitions for t1-paper and means per job for
// the serve workloads; daemon span times are self times.
var layerCatalogue = []struct{ name, unit string }{
	{"sar.simulate_s", "s"},
	{"kernels.ffbp_seq_intel_s", "s"},
	{"kernels.ffbp_seq_epiphany_s", "s"},
	{"kernels.ffbp_par_epiphany_s", "s"},
	{"kernels.af_seq_intel_s", "s"},
	{"kernels.af_seq_epiphany_s", "s"},
	{"kernels.af_par_epiphany_s", "s"},
	{"report.unattributed_s", "s"},
	{"ffbp.image_s", "s"},
	{"emu.host_ns_per_cycle", "ns"},
	{"refcpu.host_ns_per_cycle", "ns"},
	{"emu.cycles", "count"},
	{"emu.ext_busy_cycles", "count"},
	{"refcpu.cycles", "count"},
	{"refcpu.mem_served.l1", "count"},
	{"refcpu.mem_served.l2", "count"},
	{"refcpu.mem_served.l3", "count"},
	{"refcpu.mem_served.dram", "count"},
	{"bench.marshal_s", "s"},
	{"bench.envelope_bytes", "bytes"},
	{"serve.http_post_s", "s"},
	{"serve.admission_s", "s"},
	{"serve.batch_form_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.batch_jobs", "count"},
	{"serve.singleflight_joins", "count"},
	{"serve.rejected_queue", "count"},
	{"serve.rejected_quota", "count"},
	{"serve.first_seen_ratio", "ratio"},
	{"sweep.cache_lookup_s", "s"},
	{"sweep.execute_s.t1", "s"},
	{"sweep.execute_s.fig7", "s"},
	{"sweep.execute_s.scaling", "s"},
	{"sweep.execute_s.bw", "s"},
	{"sweep.execute_s.interp", "s"},
	{"sweep.execute_s.pipes", "s"},
	{"sweep.execute_s.gbp", "s"},
	{"sweep.execute_s.base", "s"},
	{"sweep.execute_s.rda", "s"},
	{"sweep.execute_s.upsample", "s"},
	{"sweep.execute_s.chaos", "s"},
	{"sweep.jobs_executed", "count"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"telemetry.ledger_write_s", "s"},
	{"telemetry.ledger_bytes_per_entry", "bytes"},
	{"generator.lag_p50_s", "s"},
	{"generator.lag_tail_s", "s"},
	{"obs.trace_overhead_s", "s"},
	{"obs.span_coverage", "ratio"},
}

// zeroLayers returns every per-layer metric at 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerCatalogue))
	for _, l := range layerCatalogue {
		m[l.name] = 0
	}
	return m
}

// setLayers records the per-layer metrics in catalogue order.
func setLayers(out *outcome, vals map[string]float64) {
	for _, l := range layerCatalogue {
		out.set(l.name, l.unit, vals[l.name])
	}
}
