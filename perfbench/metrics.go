package main

import (
	"fmt"
	"math"
)

// metric is one reported number. Note says how it was derived (the
// percentile actually reported, the sample count, the base of a ratio).
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// latency reports quantile q of samples in the given unit, noting the
// percentile actually used, the sample count and the source phase.
func latency(name, unit string, s samples, src string, per float64, q float64) metric {
	p := phaseQuantile(s, per, q)
	note := fmt.Sprintf("p%g of %d, %s", p.Q*100, p.N, src)
	if p.Tenths {
		note += ", median of per-tenth values"
	}
	return metric{Name: name, Unit: unit, Value: p.Value, Note: note}
}

// pick returns the window's samples when the workload produced any
// there, else the tail's, with the source for the note.
func pick(window, tail samples) (samples, string) {
	if len(window.ns) > 0 {
		return window, "window"
	}
	return tail, "tail"
}

// ungated names the tail percentiles of sub-millisecond operations.
// Every run prints them, but BENCHMARK.json lists them among the
// per-layer metrics, so no bound gates them: on a host whose vCPUs lose
// CPU to steal in bursts of milliseconds, about 1% of such operations
// stall, these percentiles sit on that boundary, and their run-to-run
// spread exceeded the largest bound the benchmark may set.
var ungated = map[string]bool{"check_p99_us": true, "mutation_p99_us": true, "revoke_visible_p90_ms": true}

// endToEnd derives the end-to-end metrics of an untraced run, the
// ungated percentiles included.
func endToEnd(res *result) []metric {
	var mutW, mutT samples
	for k := range res.window.mut {
		mutW.merge(res.window.mut[k])
		mutT.merge(res.tail.mut[k])
	}
	mut, mutSrc := pick(mutW, mutT)
	rev, revSrc := pick(res.window.revoke, res.tail.revoke)
	rel, relSrc := pick(res.window.reload, res.tail.reload)
	var perTenth []float64
	for _, n := range res.window.bins {
		perTenth = append(perTenth, float64(n)*numTenths/res.seconds)
	}
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(append([]float64(nil), res.setups...)),
			Note: fmt.Sprintf("median of %d set-ups %v", len(res.setups), res.setups)},
		{Name: "ops_per_s", Unit: "1/s", Value: median(perTenth),
			Note: fmt.Sprintf("median of per-tenth rates; %d ops in %.3fs", res.window.ops, res.seconds)},
		latency("check_p50_us", "us", res.window.check, "window", 1e3, 0.50),
		latency("check_p99_us", "us", res.window.check, "window", 1e3, 0.99),
		latency("mutation_p50_us", "us", mut, mutSrc, 1e3, 0.50),
		latency("mutation_p99_us", "us", mut, mutSrc, 1e3, 0.99),
		latency("revoke_visible_p50_ms", "ms", rev, revSrc, 1e6, 0.50),
		latency("revoke_visible_p90_ms", "ms", rev, revSrc, 1e6, 0.90),
		latency("reload_p50_ms", "ms", rel, relSrc, 1e6, 0.50),
		{Name: "server_rss_mb", Unit: "MB", Value: float64(res.peakRSSKB) / 1024, Note: "peak VmHWM over nodes"},
	}
}

// delta sums a metric's growth across nodes over the window.
func delta(res *result, name string) float64 {
	var d float64
	for i := range res.after {
		d += res.after[i].prom.sum(name) - res.before[i].prom.sum(name)
	}
	return d
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stageUS is the mean time per observation of one stage over the
// window, in µs.
func stageUS(res *result, stage string) float64 {
	lbl := fmt.Sprintf("{stage=%q}", stage)
	return 1e6 * ratio(delta(res, "activerbac_stage_seconds_sum"+lbl), delta(res, "activerbac_stage_seconds_count"+lbl))
}

// medianUS is the median self time of the named spans in µs.
func medianUS(self [numSpanNames][]float64, names ...spanName) float64 {
	var all []float64
	for _, n := range names {
		all = append(all, self[n]...)
	}
	if len(all) == 0 {
		return 0
	}
	return median(all) / 1e3
}

// perLayer derives the per-layer metrics of a traced run from the
// counters read around the window, the spans and the in-process replay.
func perLayer(res *result, rp *replayResult, self [numSpanNames][]float64) []metric {
	w := &res.window
	ops := float64(w.ops)
	var mutations float64
	for k := range w.mut {
		mutations += float64(len(w.mut[k].ns))
	}
	mutations += float64(len(w.reload.ns))
	var cpu, mallocs, bytes, pause, rss float64
	truncated := false
	for i := range res.after {
		a, b := res.after[i], res.before[i]
		cpu += a.cpuS - b.cpuS
		mallocs += float64(a.mem.Mallocs - b.mem.Mallocs)
		bytes += float64(a.mem.TotalAlloc - b.mem.TotalAlloc)
		p, tr := a.mem.pauseSince(b.mem)
		pause += float64(p)
		truncated = truncated || tr
		rss += float64(int64(a.rssKB)-int64(b.rssKB)) / 1024
	}
	decisions := delta(res, "activerbac_decisions_total")
	lookups := delta(res, "activerbac_fastpath_hits_total") + delta(res, "activerbac_fastpath_misses_total") + delta(res, "activerbac_fastpath_bypass_total")
	var laneMax float64
	for _, a := range res.after {
		laneMax = math.Max(laneMax, a.prom.max("activerbac_lane_queue_max_depth"))
	}
	wireClass := spWireCheck
	if len(self[spWireCheck]) == 0 {
		wireClass = spCacheCheck
	}
	pauseNote := "base: window seconds"
	if truncated {
		pauseNote += "; more GCs than the 256-entry PauseNs ring, newest 256 summed"
	}

	m := []metric{
		{"rbacd.cpu_us_per_op", "us", 1e6 * ratio(cpu, ops), "base: window ops, all nodes"},
		{"rbacd.allocs_per_op", "count", ratio(mallocs, ops), "base: window ops, all nodes"},
		{"rbacd.bytes_per_op", "B", ratio(bytes, ops), "base: window ops, all nodes"},
		{"rbacd.gc_pause_us_per_s", "us/s", ratio(pause/1e3, res.seconds), pauseNote},
		{"rbacd.rss_growth_mb", "MB", rss, "VmRSS after minus before the window, all nodes"},
		{"rbacd.window_ops_ratio", "ratio", ratio(float64(w.bins[9]), float64(w.bins[0])), "base: ops in the first tenth of the window"},
		{"http.create_us", "us", medianUS(self, spHTTPCreate), "median span, whole run"},
		{"http.activate_us", "us", medianUS(self, spHTTPActivate), "median span, whole run"},
		{"http.deactivate_us", "us", medianUS(self, spHTTPDeactivate), "median span, whole run"},
		{"http.delete_us", "us", medianUS(self, spHTTPDelete), "median span, whole run"},
		{"loadgen.cpu_us_per_op", "us", 1e6 * ratio(res.loadCPU[1]-res.loadCPU[0], ops), "base: window ops"},
		{"wire.codec_ns", "ns", rp.codecNs, "in-process CHECK + verdict frame encode and decode"},
		{"wire.transport_self_us", "us", medianUS(self, wireClass) - medianUS(self, spProcCheck),
			fmt.Sprintf("median %s span minus median in-process CheckAccessTuple span", spanNames[wireClass])},
		{"wire.errors_per_kop", "count", ratio(delta(res, "activerbac_wire_errors_total"), ops/1000), "base: thousand window ops"},
		{"fastpath.hit_ratio", "ratio", ratio(delta(res, "activerbac_fastpath_hits_total"), lookups), "base: hits + misses + bypass"},
		{"fastpath.invalidations_per_mutation", "count", ratio(delta(res, "activerbac_fastpath_invalidations_total"), mutations), "base: window mutations and reloads (0 when none)"},
		{"stage.fastpath_probe_us", "us", stageUS(res, "fastpath_probe"), "base: probes"},
		{"stage.cascade_us", "us", stageUS(res, "cascade"), "base: cascades"},
		{"stage.lane_wait_us", "us", stageUS(res, "lane_wait"), "base: lane waits"},
		{"event.raised_per_decision", "count", ratio(delta(res, "activerbac_events_raised_total"), decisions), "base: decisions"},
		{"event.lane_max_depth", "count", laneMax, "high-water mark over lanes and nodes"},
		{"batch.groups_per_batch", "count", ratio(delta(res, "activerbac_batch_groups_total"), delta(res, "activerbac_batch_size_count")), "base: batches (0 when none)"},
		{"core.rules_fired_per_decision", "count", ratio(delta(res, "activerbac_rule_fired_total"), decisions), "base: decisions"},
		{"core.rule_eval_us_per_decision", "us", 1e6 * ratio(delta(res, "activerbac_rule_eval_seconds_total"), decisions), "base: decisions"},
		{"rbac.push_epochs_per_mutation", "count", ratio(float64(res.after[0].pushEpch-res.before[0].pushEpch), mutations), "leader push epochs; base: window mutations and reloads (0 when none)"},
		{"rbac.sessions_live", "count", res.after[0].prom.sum("activerbac_sessions"), "leader, end of window"},
		{"rulegen.open_s", "s", rp.openS, "in-process activerbac.Open of the same policy"},
		{"rulegen.apply_ms", "ms", rp.applyMs, "in-process ApplyPolicy of a one-grant change, median"},
		{"analyze.gate_ms", "ms", rp.analyzeMs, "in-process AnalyzePolicy (the hot-reload gate: scratch compile + analysis), median of 3"},
	}
	if len(res.after) > 1 { // fleet: the replica's own counters
		a, b := res.after[1].prom, res.before[1].prom
		syncs := a.sum("activerbac_sync_total") - b.sum("activerbac_sync_total")
		m = append(m,
			metric{"replicate.syncs_per_mutation", "count", ratio(syncs, mutations), "replica syncs; base: window mutations and reloads"},
			metric{"replicate.bytes_per_sync", "B", ratio(a.sum("activerbac_sync_bytes_total")-b.sum("activerbac_sync_bytes_total"), syncs), "replica; base: syncs"},
			metric{"replicate.sync_ms", "ms", 1e3 * ratio(a.sum("activerbac_sync_seconds_sum")-b.sum("activerbac_sync_seconds_sum"), a.sum("activerbac_sync_seconds_count")-b.sum("activerbac_sync_seconds_count")), "replica; base: syncs"},
		)
	} else {
		m = append(m,
			metric{"replicate.syncs_per_mutation", "count", 0, "no replica"},
			metric{"replicate.bytes_per_sync", "B", rp.exportBytes, "no replica: in-process snapshot size"},
			metric{"replicate.sync_ms", "ms", rp.exportMs + rp.installMs, "no replica: in-process export + install"},
		)
	}
	tc := res.tailClient
	cHit, cInv, cSec := ratio(float64(tc.Hits), float64(tc.Hits+tc.Misses)), float64(tc.Invalidations), res.tailSeconds
	cNote := "tail probe cache at the leader"
	if len(res.after) > 1 {
		hits := float64(res.clientAfter.Hits - res.clientBefore.Hits)
		misses := float64(res.clientAfter.Misses - res.clientBefore.Misses)
		cHit = ratio(hits, hits+misses)
		cInv = float64(res.clientAfter.Invalidations - res.clientBefore.Invalidations)
		cSec = res.seconds
		cNote = "reader cache at the replica, window"
	}
	for _, e := range endToEnd(res) {
		if ungated[e.Name] {
			m = append(m, e)
		}
	}
	m = append(m,
		metric{"replicate.install_ms", "ms", rp.installMs, "in-process InstallSyncSnapshot onto a synced replica, median"},
		metric{"store.export_ms", "ms", rp.exportMs, "in-process ExportSyncSnapshot, median"},
		metric{"client.hit_ratio", "ratio", cHit, cNote + "; base: hits + misses"},
		metric{"client.invalidations_per_s", "1/s", ratio(cInv, cSec), cNote},
		metric{"obs.traces_per_s", "1/s", ratio(delta(res, "activerbac_traces_total"), res.seconds), "base: window seconds"},
		metric{"trace.overhead_pct", "%", 100 * ratio(float64(w.sliceOps[0]-w.sliceOps[1]), float64(w.sliceOps[0])),
			fmt.Sprintf("ops in untraced vs traced slices: %d vs %d", w.sliceOps[0], w.sliceOps[1])},
	)
	return m
}
