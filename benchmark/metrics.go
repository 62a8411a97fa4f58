package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// The metric names below are the contract later changes cite; the same
// names, with units and bounds, are in BENCHMARK.json, and the smoke
// test holds the two lists together.

type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system would see. fail_share is
// not among them because a metric here may never be 0; it is the
// ratio of the result's failed and attempted counts.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"op_p50_us", "us"},
	{"op_p95_us", "us"},
	{"write_p50_us", "us"},
	{"strict_read_p50_us", "us"},
	{"large_p50_us", "us"},
	{"rate_ok_per_s", "1/s"},
}

// higherIsBetter names the end-to-end metrics that are rates; of every
// other one, less is better.
var higherIsBetter = map[string]bool{"ops_per_s": true, "rate_ok_per_s": true}

var endToEndNames = names(endToEnd)

// spanNames are the spans of the traced pass; each is reported as
// <name>.p50 and <name>.p99.
var spanNames = []string{
	"mesh.route_us", "core.fanout_us", "pairedmsg.request_wire_us", "core.dispatch_wait_us",
	"mesh.guard_us", "kv.exec_read_us", "kv_wal.exec_write_us", "wal.fsync_us", "wal.write_us",
	"core.reply_path_us", "core.collate_wait_us", "core.return_us", "span.root_us", "span.unattributed_us",
}

// counterDefs are read from the layers' own counters over the last
// round's measured window; probeDefs are timed around single layers.
// op_p99_us stands first: the 99th percentile of the primary operation
// over the untraced rounds, which this sandbox cannot hold within any
// bound the contract allows (README, "Observed spreads") and which is
// therefore reported here, without one.
var counterDefs = []metricDef{
	{"op_p99_us", "us"},
	{"netsim.dgrams_per_op", "count"}, {"netsim.sendops_per_op", "count"}, {"netsim.dropped", "count"},
	{"pairedmsg.segments_per_op", "count"}, {"pairedmsg.retransmits", "count"},
	{"pairedmsg.acks_explicit_per_op", "count"}, {"pairedmsg.acks_piggybacked_share", "share"},
	{"pairedmsg.frames_per_bundle", "count"}, {"pairedmsg.dup_segments", "count"}, {"pairedmsg.delivery_drops", "count"},
	{"core.attempts_per_op", "count"}, {"core.rebinds", "count"}, {"core.suspected", "count"},
	{"mesh.redirects", "count"}, {"mesh.refreshes", "count"}, {"mesh.stale_bounce_share", "share"},
	{"mesh.escalation_share", "share"}, {"mesh.hot_widenings", "count"}, {"mesh.stale_serves", "count"},
	{"wal.fsyncs_per_write", "count"}, {"wal.appends_per_fsync", "count"}, {"wal.snapshots", "count"}, {"wal.segments", "count"},
	{"proc.allocs_per_op", "count"}, {"proc.alloc_bytes_per_op", "B"}, {"proc.gc_pause_ms", "ms"}, {"proc.gc_cycles", "count"},
	{"proc.peak_rss_mb", "MB"}, {"proc.goroutines_end", "count"},
	{"loadgen.late_p50_us", "us"}, {"loadgen.late_p99_us", "us"}, {"loadgen.inflight_max", "count"}, {"loadgen.inflight_end", "count"},
}

var probeDefs = []metricDef{
	{"wire.marshal_ns", "ns"}, {"wire.unmarshal_ns", "ns"}, {"wire.marshal_allocs", "count"},
	{"netsim.hop_ns", "ns"}, {"netsim.delay_overshoot_us", "us"},
	{"udptrans.rtt_ns", "ns"}, {"udptrans.batch_ns_per_dgram", "ns"}, {"udptrans.iouring_active", "count"},
	{"pairedmsg.exchange_ns", "ns"}, {"pairedmsg.exchange_allocs", "count"}, {"pairedmsg.exchange_4k_ns", "ns"},
	{"core.call_d1_ns", "ns"}, {"core.call_d3_ns", "ns"}, {"core.call_d3_allocs", "count"},
	{"collate.unanimous3_ns", "ns"}, {"mesh.owner_ns", "ns"},
	{"wal.append_sync_c1_us", "us"}, {"wal.append_sync_c16_us", "us"}, {"wal.appends_per_fsync_c16", "count"},
	{"ringmaster.lookup_us", "us"},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// perLayer lists every per-layer metric with its unit.
func perLayer() []metricDef {
	out := append([]metricDef(nil), counterDefs...)
	for _, s := range spanNames {
		out = append(out, metricDef{s + ".p50", "us"}, metricDef{s + ".p99", "us"})
	}
	out = append(out, metricDef{"trace.overhead_share", "share"})
	return append(out, probeDefs...)
}

func perLayerNames() []string { return names(perLayer()) }

// ratio is a/b, 0 when the layer did no such work.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

// layerReading is what the layers' counters and the Go runtime say at
// one moment.
type layerReading struct {
	counters
	mem        runtime.MemStats
	goroutines int
}

func readLayers(sys system) *layerReading {
	r := &layerReading{counters: sys.counters(), goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&r.mem)
	return r
}

// counterMetrics turns the readings before and after the measured
// window into the per-layer counter metrics. A layer the workload does
// not use reads 0.
func counterMetrics(l map[string]float64, a, b *layerReading, win *phase) {
	n := float64(win.attempted() - win.failed())
	l["netsim.dgrams_per_op"] = float64(b.netDgrams-a.netDgrams) / n
	l["netsim.sendops_per_op"] = float64(b.netSendOps-a.netSendOps) / n
	l["netsim.dropped"] = float64(b.netDropped - a.netDropped)

	acks := float64(b.msg.AcksSent - a.msg.AcksSent)
	piggy := float64(b.msg.AcksPiggybacked - a.msg.AcksPiggybacked)
	l["pairedmsg.segments_per_op"] = float64(b.msg.SegmentsSent-a.msg.SegmentsSent) / n
	l["pairedmsg.retransmits"] = float64(b.msg.Retransmits - a.msg.Retransmits)
	l["pairedmsg.acks_explicit_per_op"] = (acks - piggy) / n
	l["pairedmsg.acks_piggybacked_share"] = ratio(piggy, acks)
	l["pairedmsg.frames_per_bundle"] = ratio(float64(b.msg.BundledFrames-a.msg.BundledFrames), float64(b.msg.BundlesSent-a.msg.BundlesSent))
	l["pairedmsg.dup_segments"] = float64(b.msg.DupSegments - a.msg.DupSegments)
	l["pairedmsg.delivery_drops"] = float64(b.msg.DeliveryDrops - a.msg.DeliveryDrops)

	l["core.attempts_per_op"] = float64(b.attempts-a.attempts) / n
	l["core.rebinds"] = float64(b.rebinds - a.rebinds)
	l["core.suspected"] = float64(b.suspected - a.suspected)

	spread := float64(b.mesh.SpreadReads-a.mesh.SpreadReads) + float64(b.mesh.Escalations-a.mesh.Escalations)
	l["mesh.redirects"] = float64(b.mesh.Redirects - a.mesh.Redirects)
	l["mesh.refreshes"] = float64(b.mesh.Refreshes - a.mesh.Refreshes)
	l["mesh.stale_bounce_share"] = ratio(float64(b.mesh.StaleBounces-a.mesh.StaleBounces), spread)
	l["mesh.escalation_share"] = ratio(float64(b.mesh.Escalations-a.mesh.Escalations), spread)
	l["mesh.hot_widenings"] = float64(b.mesh.HotWidenings - a.mesh.HotWidenings)
	l["mesh.stale_serves"] = float64(b.mesh.StaleServes - a.mesh.StaleServes)

	appends := float64(b.wal.Appends - a.wal.Appends)
	l["wal.fsyncs_per_write"] = ratio(float64(b.diskFsyncs-a.diskFsyncs), appends)
	l["wal.appends_per_fsync"] = ratio(appends, float64(b.wal.Fsyncs-a.wal.Fsyncs))
	l["wal.snapshots"] = float64(b.wal.Snapshots - a.wal.Snapshots)
	l["wal.segments"] = float64(b.wal.Segments - a.wal.Segments)

	l["proc.allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
	l["proc.alloc_bytes_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / n
	l["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	l["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	l["proc.goroutines_end"] = float64(b.goroutines)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		l["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	late := sortDurations(append([]time.Duration(nil), win.late...))
	l["loadgen.late_p50_us"], l["loadgen.late_p99_us"] = us(quantile(late, 0.5)), us(quantile(late, 0.99))
	l["loadgen.inflight_max"], l["loadgen.inflight_end"] = float64(win.inflightMax), win.inflightEnd
}
