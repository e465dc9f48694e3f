package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricValue is one reported number.
type metricValue struct {
	name  string
	unit  string
	value float64
}

// report is what one run measured, and turns it into the catalogue's
// metrics.
type report struct {
	wins    [nWindows]windowRec
	snaps   [nWindows + 1]snapshot
	traced  [nWindows]bool // which windows had the tracer on
	written int            // edges the writer appended, windows or not
	setupS  []float64
	// firstErr is the first request or write that failed inside a window.
	firstErr error

	// Traced runs only.
	final      map[string]float64 // layer counters just before teardown
	residentMB float64
	compactMS  float64
	probes     map[string]float64
	spans      []span
	tracePath  string

	outstanding int64
	peakRSSMB   float64
}

// window is one measurement window's record with its boundary snapshots.
type window struct {
	rec      windowRec
	from, to snapshot
	traced   bool
}

func (w window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }

func (r *report) windows() []window {
	out := make([]window, nWindows)
	for i := range out {
		out[i] = window{r.wins[i], r.snaps[i], r.snaps[i+1], r.traced[i]}
	}
	return out
}

// perRoot returns f's per-window value divided by the window's roots.
func perRoot(f func(window) float64) func(window) (float64, error) {
	return func(w window) (float64, error) {
		if w.rec.roots == 0 {
			return 0, fmt.Errorf("no root completed")
		}
		return f(w) / float64(w.rec.roots), nil
	}
}

// counts returns requests (and writes) attempted and failed inside the
// windows.
func (r *report) counts() (attempted, failed int64) {
	for _, w := range r.wins {
		attempted += w.ok + w.failed
		failed += w.failed
	}
	return attempted, failed
}

// endToEnd computes the user-visible metrics. Each timing metric is
// the median over the windows of the per-window value. correct false
// zeroes ok_share: a run whose outputs are wrong served nothing.
func (r *report) endToEnd(correct bool) ([]metricValue, error) {
	ws := r.windows()
	vals := map[string]float64{
		"setup_s":     median(r.setupS),
		"peak_rss_mb": r.peakRSSMB,
	}
	if attempted, failed := r.counts(); correct && attempted > 0 {
		vals["ok_share"] = float64(attempted-failed) / float64(attempted)
	}
	perWindow := map[string]func(window) (float64, error){
		"roots_per_s":         func(w window) (float64, error) { return float64(w.rec.roots) / w.seconds(), nil },
		"p50_ms":              func(w window) (float64, error) { return percentile(w.rec.latMS, 50, minPercentileSamples) },
		"wire_bytes_per_root": perRoot(func(w window) float64 { return float64(w.to.wireBytes - w.from.wireBytes) }),
		"allocs_per_root":     perRoot(func(w window) float64 { return float64(w.to.mallocs - w.from.mallocs) }),
		"alloc_kb_per_root":   perRoot(func(w window) float64 { return float64(w.to.allocBytes-w.from.allocBytes) / 1024 }),
	}
	var firstErr error
	for name, f := range perWindow {
		v, err := medianOverWindows(ws, f)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		vals[name] = v
	}
	return inCatalogueOrder(endToEnd, vals), firstErr
}

func inCatalogueOrder(defs []metricDef, vals map[string]float64) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		out[i] = metricValue{d.name, d.unit, vals[d.name]}
	}
	return out
}

// perLayer computes the layer metrics of a traced run. Counts and span
// times cover the traced windows only and are normalised by the roots
// those windows completed; un-normalised counts (sheds, connections, WAL
// appends) cover the whole life of the stack.
func (r *report) perLayer() []metricValue {
	ws := r.windows()
	var roots, allRoots, wallMS float64
	delta := map[string]float64{}
	var tracedRate, plainRate, allLat, allLate, allAppend []float64
	var gcCycles, cpuMS float64
	for _, w := range ws {
		rate := float64(w.rec.roots) / w.seconds()
		allRoots += float64(w.rec.roots)
		gcCycles += float64(w.to.gcCycles - w.from.gcCycles)
		cpuMS += float64(w.to.cpu-w.from.cpu) / 1e6
		allLat = append(allLat, w.rec.latMS...)
		allLate = append(allLate, w.rec.lateMS...)
		allAppend = append(allAppend, w.rec.appendUS...)
		if !w.traced {
			plainRate = append(plainRate, rate)
			continue
		}
		tracedRate = append(tracedRate, rate)
		roots += float64(w.rec.roots)
		wallMS += w.seconds() * 1e3
		for k, v := range w.to.layers {
			delta[k] += v - w.from.layers[k]
		}
	}
	ix := indexSpans(r.spans)
	p := func(vals []float64, q float64) float64 {
		v, _ := percentile(vals, q, 1)
		return v
	}
	handleMS := sum(ix.durationsMS(spanHandle))
	readMS := delta["store.read_ns"] / 1e6

	vals := map[string]float64{
		"gateway.self_ms_p50":             p(ix.selfMS(spanGateway), 50),
		"gateway.shed":                    r.final["gateway.shed"],
		"pipeline.self_ms_p50":            p(ix.selfMS(spanPipeline), 50),
		"pipeline.fetch_calls_per_root":   ratio(delta["pipeline.fetches"], roots),
		"pipeline.window_stalls_per_root": ratio(delta["pipeline.stalls"], roots),
		"pipeline.inflight_peak":          r.final["pipeline.peak"],
		"cluster.fetch_ms_p50":            p(ix.durationsMS(spanFetch), 50),
		"cluster.frames_per_root":         ratio(delta["wire.frames"], roots),
		"cluster.reqs_per_frame":          ratio(delta["pack.requests"], delta["pack.frames"]),
		"cluster.wire_ratio":              ratio(delta["pack.wire_bytes"], delta["pack.raw_bytes"]),
		"cluster.req_bytes_per_root":      ratio(delta["wire.req_bytes"], roots),
		"cluster.resp_bytes_per_root":     ratio(delta["wire.resp_bytes"], roots),
		"cluster.conns_opened":            r.final["tcp.accepted"],
		"cluster.frame_rtt_ms_p50":        p(ix.durationsMS(spanFrame), 50),
		"cluster.wire_self_ms_per_root":   ratio(sum(ix.selfMS(spanFrame)), roots),
		"cluster.handle_ms_p50":           p(ix.durationsMS(spanHandle), 50),
		"cluster.server_self_ms_per_root": ratio(handleMS-readMS, roots),
		"cluster.server_busy_share":       ratio(handleMS, wallMS*partitions),
		"store.read_ms_per_root":          ratio(readMS, roots),
		"store.reads_per_root":            ratio(delta["store.reads"], roots),
		"store.cache_hit_share":           ratio(delta["store.hits"], delta["store.hits"]+delta["store.misses"]),
		"store.evictions_per_root":        ratio(delta["store.evictions"], roots),
		"store.resident_mb_peak":          r.residentMB,
		"store.append_us_p50":             p(allAppend, 50),
		"store.wal_appends":               r.final["store.wal_appends"],
		"store.compact_ms":                r.compactMS,
		"mem.pool_hit_share":              ratio(delta["mem.hits"], delta["mem.hits"]+delta["mem.misses"]),
		"mem.outstanding_end":             float64(r.outstanding),
		"runtime.gc_cycles_per_kroot":     ratio(gcCycles, allRoots/1000),
		"process.cpu_ms_per_root":         ratio(cpuMS, allRoots),
		"tail.p95_ms":                     p(allLat, 95),
		"tail.p99_ms":                     p(allLat, 99),
		"loadgen.late_ms_p95":             p(allLate, 95),
		"trace.overhead_share":            1 - ratio(median(tracedRate), median(plainRate)),
	}
	for k, v := range r.probes {
		vals[k] = v
	}
	return inCatalogueOrder(perLayer, vals)
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, ms []metricValue) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-11s %-34s %14.4f %s\n", workload, m.name, m.value, m.unit)
	}
}

// resultLine is the machine-readable last line of a run.
func resultLine(correct bool, attempted, failed int64, ms []metricValue) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(ms))
	for _, m := range ms {
		metrics[m.name] = val{m.value, m.unit}
	}
	if attempted < 1 {
		// The contract wants at least one attempt; a run that died before
		// its windows attempted, and failed, the run itself.
		attempted, failed = 1, 1
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
