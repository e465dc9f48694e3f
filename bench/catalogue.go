package main

// workloadSpec is one traffic mix the benchmark drives through the serving
// path. Sampling is the same on all of them: 2-hop 10×10, 10 negatives,
// attributes fetched, Streaming, RootStreams.
type workloadSpec struct {
	name string
	why  string
	// batch is roots per request.
	batch int
	// rate > 0 is an open loop at that many requests per second; 0 is a
	// closed loop of one client. One, not two: two keep both cores of the
	// reference box busy, and then whatever else the host runs moves
	// throughput by 15 % where one client's moves by 5 %.
	rate float64
	// disk serves each shard from a store.DiskStore under a page-cache
	// budget of a budgetDivisor-th of its segment.
	disk bool
	// ingest > 0 runs one writer appending that many edges per second
	// beside the sampling clients.
	ingest float64
}

func (w workloadSpec) readOnly() bool { return w.ingest == 0 }

var workloads = []workloadSpec{
	{
		name:  "batch_mem",
		why:   "closed loop, 1 client x 32-root batches, memory shards: the mini-batch throughput regime; window, packer, codec, TCP and Handle work, the store idles",
		batch: 32,
	},
	{
		name:  "seed_lat",
		why:   "open loop, 150 single-root requests/s, memory shards: the single-seed latency regime; per-request fixed costs and the pack window dominate, packing amortises nothing",
		batch: 1, rate: 150,
	},
	{
		name:  "batch_disk",
		why:   "batch_mem with each shard on a DiskStore budgeted to 1/8 of its segment: the larger-than-RAM premise; the page-cache miss path is on the critical path",
		batch: 32, disk: true,
	},
	{
		name:  "ingest_mix",
		why:   "batch_disk beside a writer appending 2000 edges/s: WAL append and memtable overlay contend with the read path, and nothing else differs from batch_disk",
		batch: 32, disk: true, ingest: 2000,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the service sees or pays. Every one is
// reported on every workload, from the untraced run. Tail latency and CPU
// per root are not among them: on the reference box the host slows the
// guest's cores for minutes at a time, and between two sets of runs of
// identical code seed_lat's p95 then moved by 30 % and its CPU per root by
// 40 % (reference.md). They are the ungated layer metrics tail.p95_ms,
// tail.p99_ms and process.cpu_ms_per_root until they are shown to repeat.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"roots_per_s", "1/s", "higher", 0.20},
	{"p50_ms", "ms", "lower", 0.20},
	{"ok_share", "share", "higher", 0.01},
	{"wire_bytes_per_root", "B", "lower", 0.03},
	{"allocs_per_root", "count", "lower", 0.03},
	{"alloc_kb_per_root", "KiB", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer is what single layers do, from the traced run. The README's
// table says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{"gateway.self_ms_p50", "ms", "lower", 0},
	{"gateway.shed", "count", "lower", 0},
	{"pipeline.self_ms_p50", "ms", "lower", 0},
	{"pipeline.fetch_calls_per_root", "count", "lower", 0},
	{"pipeline.window_stalls_per_root", "count", "lower", 0},
	{"pipeline.inflight_peak", "count", "higher", 0},
	{"cluster.fetch_ms_p50", "ms", "lower", 0},
	{"cluster.frames_per_root", "count", "lower", 0},
	{"cluster.reqs_per_frame", "count", "higher", 0},
	{"cluster.wire_ratio", "ratio", "lower", 0},
	{"cluster.req_bytes_per_root", "B", "lower", 0},
	{"cluster.resp_bytes_per_root", "B", "lower", 0},
	{"cluster.conns_opened", "count", "lower", 0},
	{"cluster.frame_rtt_ms_p50", "ms", "lower", 0},
	{"cluster.wire_self_ms_per_root", "ms", "lower", 0},
	{"cluster.handle_ms_p50", "ms", "lower", 0},
	{"cluster.server_self_ms_per_root", "ms", "lower", 0},
	{"cluster.server_busy_share", "share", "lower", 0},
	{"store.read_ms_per_root", "ms", "lower", 0},
	{"store.reads_per_root", "count", "lower", 0},
	{"store.cache_hit_share", "share", "higher", 0},
	{"store.evictions_per_root", "count", "lower", 0},
	{"store.resident_mb_peak", "MiB", "lower", 0},
	{"store.append_us_p50", "us", "lower", 0},
	{"store.wal_appends", "count", "higher", 0},
	{"store.compact_ms", "ms", "lower", 0},
	{"sampler.mem_us_per_root", "us", "lower", 0},
	{"store.disk_us_per_root", "us", "lower", 0},
	{"cluster.codec_us_per_frame", "us", "lower", 0},
	{"mof.bdi_enc_mb_s", "MB/s", "higher", 0},
	{"mof.bdi_dec_mb_s", "MB/s", "higher", 0},
	{"mof.bdi_ratio", "ratio", "lower", 0},
	{"mem.pool_hit_share", "share", "higher", 0},
	{"mem.outstanding_end", "count", "lower", 0},
	{"runtime.gc_cycles_per_kroot", "count", "lower", 0},
	{"process.cpu_ms_per_root", "ms", "lower", 0},
	{"tail.p95_ms", "ms", "lower", 0},
	{"tail.p99_ms", "ms", "lower", 0},
	{"loadgen.late_ms_p95", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}
