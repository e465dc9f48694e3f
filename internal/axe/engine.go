package axe

import (
	"fmt"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/eventsim"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// Engine is one FPGA's Access Engine attached to a partitioned graph: a
// timing model. RunBatch takes a mini-batch some sampler already produced
// and replays the hardware timing of producing it as an event simulation;
// the graph supplies only degrees and owners, never results.
type Engine struct {
	g    *graph.Graph
	part cluster.Partitioner
	home int
	cfg  Config
	csrs CSRFile
}

// New creates an engine for partition `home` of g under part.
func New(g *graph.Graph, part cluster.Partitioner, home int, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if home < 0 || home >= part.Servers() {
		return nil, fmt.Errorf("axe: home partition %d out of %d", home, part.Servers())
	}
	return &Engine{g: g, part: part, home: home, cfg: cfg}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the attached graph: the model reads degrees and owners from
// it, and controller-level commands sample and read attributes over it.
func (e *Engine) Graph() *graph.Graph { return e.g }

// CSRs exposes the control/status register file.
func (e *Engine) CSRs() *CSRFile { return &e.csrs }

// BatchStats reports the hardware-model outcome of one batch.
type BatchStats struct {
	SimTime eventsim.Time
	// Request/byte counts by path.
	LocalRequests, RemoteRequests int64
	LocalBytes, RemoteBytes       int64
	OutputBytes                   int64
	// CacheHitRate is the line-hit rate across all core caches.
	CacheHitRate float64
	// RootsPerSecond is batch roots / SimTime.
	RootsPerSecond float64
	// SamplesPerSecond counts sampled nodes (all hops) per second.
	SamplesPerSecond float64
	// OutputUtilization is busy share of the output link.
	OutputUtilization float64
	// Per-unit busy shares (averaged over cores), for bottleneck
	// diagnosis: frontend pipeline, GetSample unit, GetAttribute unit,
	// and the local memory channels.
	PipelineUtilization float64
	SampleUtilization   float64
	AttrUtilization     float64
	LocalUtilization    float64
}

// Address map: | owner+1 (20b) | region (4b) | offset (40b) |.
const (
	regionShift = 40
	ownerShift  = 44

	regionStruct = 0
	regionEdge   = 1
	regionAttr   = 2
)

func structAddr(owner int, v graph.NodeID) uint64 {
	return uint64(owner+1)<<ownerShift | regionStruct<<regionShift | uint64(v)*16
}

func edgeAddr(owner int, idx int64) uint64 {
	return uint64(owner+1)<<ownerShift | regionEdge<<regionShift | uint64(idx)*8
}

func attrAddr(owner int, v graph.NodeID, attrBytes int) uint64 {
	return uint64(owner+1)<<ownerShift | regionAttr<<regionShift | uint64(v)*uint64(attrBytes)
}

// run is per-batch simulation state.
type run struct {
	e   *Engine
	sim *eventsim.Sim

	localCh    []*eventsim.Link
	remote     *eventsim.Link // nil when RemoteSharesLocal
	remoteXtra eventsim.Time  // extra latency when sharing the local link
	output     *eventsim.Link // may alias localCh[0]
	outXtra    eventsim.Time

	cores   []*core
	res     *sampler.Result // the replayed batch: tasks walk its hops
	attrLen int

	outstanding int
	done        eventsim.Time
	stats       BatchStats
}

func (r *run) cyc(n int) eventsim.Time {
	return eventsim.Time(float64(n) * 1e12 / r.e.cfg.ClockHz)
}

type taskKind int

const (
	taskFrontier taskKind = iota
	taskAttr
)

type task struct {
	kind taskKind
	v    graph.NodeID
	hop  int // frontier: depth (0 = expanding a root)
	idx  int // frontier: index within its level
}

type core struct {
	r           *run
	id          int
	pending     []task
	inflight    int
	pipeline    *eventsim.FIFO
	sampleUnit  *eventsim.FIFO
	attrUnit    *eventsim.FIFO
	window      *eventsim.Semaphore
	cache       *CoalescingCache
	issueTime   eventsim.Time
	issueRemain eventsim.Time
}

// RunBatch replays the modeled timing of producing res — a batch sampled
// under the engine's Sampling config — from its roots, hops and negatives
// and sampler.Steps. Timing is a function of res alone: the same batch
// times the same on every call, whichever path sampled it.
func (e *Engine) RunBatch(res *sampler.Result) BatchStats {
	cfg := e.cfg
	roots := res.Roots
	r := &run{e: e, sim: eventsim.New(), attrLen: e.g.AttrLen(), res: res}

	// Build the IO fabric.
	for i := 0; i < cfg.LocalChannels; i++ {
		l := eventsim.NewLink(r.sim, cfg.Local.PeakBytesPerSec, nsT(cfg.Local.LatencyNs))
		l.PerMessageOverheadBytes = cfg.Local.OverheadBytes
		r.localCh = append(r.localCh, l)
	}
	if cfg.RemoteSharesLocal {
		extra := cfg.Remote.LatencyNs - cfg.Local.LatencyNs
		if extra < 0 {
			extra = 0
		}
		r.remoteXtra = nsT(extra)
	} else {
		r.remote = eventsim.NewLink(r.sim, cfg.Remote.PeakBytesPerSec, nsT(cfg.Remote.LatencyNs))
		r.remote.PerMessageOverheadBytes = cfg.Remote.OverheadBytes
	}
	if cfg.OutputSharesLocal {
		r.output = r.localCh[0]
		extra := cfg.Output.LatencyNs - cfg.Local.LatencyNs
		if extra > 0 {
			r.outXtra = nsT(extra)
		}
	} else {
		r.output = eventsim.NewLink(r.sim, cfg.Output.PeakBytesPerSec, nsT(cfg.Output.LatencyNs))
		r.output.PerMessageOverheadBytes = cfg.Output.OverheadBytes
	}

	// Cores.
	ii := cfg.BaseNodeCycles / cfg.PipelineDepth
	if ii < 1 {
		ii = 1
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &core{
			r: r, id: i,
			pipeline:   eventsim.NewFIFO(r.sim),
			sampleUnit: eventsim.NewFIFO(r.sim),
			attrUnit:   eventsim.NewFIFO(r.sim),
			window:     eventsim.NewSemaphore(cfg.Window),
			cache:      NewCoalescingCache(cfg.CacheBytes, cfg.CacheLineBytes),
		}
		c.issueTime = r.cyc(ii)
		c.issueRemain = r.cyc(cfg.BaseNodeCycles - ii)
		r.cores = append(r.cores, c)
	}

	// Seed the work: every root is a frontier task plus (optionally) an
	// attribute fetch; negatives are pure attribute fetches.
	for i, v := range roots {
		c := r.cores[i%cfg.Cores]
		c.push(task{kind: taskFrontier, v: v, hop: 0, idx: i})
		if cfg.Sampling.FetchAttrs {
			c.push(task{kind: taskAttr, v: v})
		}
	}
	if cfg.Sampling.FetchAttrs {
		for i, v := range res.Negatives {
			r.cores[i%cfg.Cores].push(task{kind: taskAttr, v: v})
		}
	}

	r.sim.Run()
	if r.outstanding != 0 {
		panic(fmt.Sprintf("axe: %d tasks still outstanding after simulation drained", r.outstanding))
	}

	// Gather stats.
	st := &r.stats
	st.SimTime = r.done
	var hits, misses int64
	for _, c := range r.cores {
		hits += c.cache.Hits()
		misses += c.cache.Misses()
	}
	if hits+misses > 0 {
		st.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if sec := st.SimTime.Seconds(); sec > 0 {
		st.RootsPerSecond = float64(len(roots)) / sec
		sampled := 0
		for _, h := range res.Hops {
			sampled += len(h)
		}
		st.SamplesPerSecond = float64(sampled) / sec
		st.OutputUtilization = r.output.Utilization()
		nc := float64(len(r.cores))
		for _, c := range r.cores {
			st.PipelineUtilization += c.pipeline.Utilization() / nc
			st.SampleUtilization += c.sampleUnit.Utilization() / nc
			st.AttrUtilization += c.attrUnit.Utilization() / nc
		}
		for _, l := range r.localCh {
			st.LocalUtilization += l.Utilization() / float64(len(r.localCh))
		}
	}
	return *st
}

func nsT(ns float64) eventsim.Time {
	return eventsim.Time(ns * float64(eventsim.Nanosecond))
}

// --- core scheduling ---

func (c *core) push(t task) {
	c.r.outstanding++
	c.pending = append(c.pending, t)
	c.dispatch()
}

func (c *core) dispatch() {
	for c.inflight < c.r.e.cfg.MaxInflightTasks && len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		c.inflight++
		if t.kind == taskFrontier {
			c.runFrontier(t)
		} else {
			c.runAttr(t)
		}
	}
}

func (c *core) finish() {
	c.inflight--
	c.r.outstanding--
	if c.r.outstanding == 0 {
		c.r.done = c.r.sim.Now()
	}
	c.dispatch()
}

// memRead models one load-unit access of n bytes at addr owned by owner.
func (c *core) memRead(addr uint64, owner, n int, then func()) {
	r := c.r
	c.window.Acquire(func() {
		release := func() {
			c.window.Release()
			then()
		}
		missing := c.cache.Access(addr, n)
		if missing == 0 {
			r.sim.After(r.cyc(r.e.cfg.CacheHitCycles), release)
			return
		}
		bytes := missing * c.cache.LineBytes()
		if owner == r.e.home {
			ch := r.localCh[int(addr>>6)%len(r.localCh)]
			r.stats.LocalRequests++
			r.stats.LocalBytes += int64(bytes)
			ch.Send(bytes, release)
			return
		}
		r.stats.RemoteRequests++
		r.stats.RemoteBytes += int64(bytes)
		if r.remote != nil {
			r.remote.Send(bytes, release)
		} else {
			// base-style: remote data rides the shared local link with the
			// longer NIC round-trip latency and NIC per-request overhead.
			ch := r.localCh[int(addr>>6)%len(r.localCh)]
			ch.SendWithLatency(bytes+r.e.cfg.Remote.OverheadBytes, r.remoteXtra, release)
		}
	})
}

// runFrontier executes the GetNeighbor→GetSample path for one node.
func (c *core) runFrontier(t task) {
	r := c.r
	cfg := r.e.cfg
	owner := r.e.part.Owner(t.v)
	c.pipeline.Submit(c.issueTime, func() {
		r.sim.After(c.issueRemain, func() {
			// CSR offset/degree read.
			c.memRead(structAddr(owner, t.v), owner, 16, func() {
				start, end := r.e.g.EdgeRange(t.v)
				deg := int(end - start)
				readEdges := func(next func()) {
					if deg == 0 {
						next()
						return
					}
					c.memRead(edgeAddr(owner, start), owner, deg*8, next)
				}
				readEdges(func() {
					fanout := cfg.Sampling.Fanouts[t.hop]
					cycles := sampler.Steps(deg, fanout, cfg.Sampling.Method)
					if cycles < 1 {
						cycles = 1
					}
					c.sampleUnit.Submit(r.cyc(cycles), func() {
						hop := t.hop
						base := t.idx * fanout
						children := r.res.Hops[hop][base : base+fanout]
						last := hop == len(cfg.Sampling.Fanouts)-1
						for j, child := range children {
							childIdx := base + j
							if !last {
								c.push(task{kind: taskFrontier, v: child, hop: hop + 1, idx: childIdx})
							}
							if cfg.Sampling.FetchAttrs {
								c.push(task{kind: taskAttr, v: child})
							}
						}
						// Stream the sampled IDs out.
						r.stats.OutputBytes += int64(fanout * 8)
						c.sendOutput(fanout*8, c.finish)
					})
				})
			})
		})
	})
}

// runAttr executes the GetAttribute path for one node.
func (c *core) runAttr(t task) {
	r := c.r
	owner := r.e.part.Owner(t.v)
	ab := r.attrLen * 4
	c.attrUnit.Submit(r.cyc(2), func() {
		c.memRead(attrAddr(owner, t.v, ab), owner, ab, func() {
			r.stats.OutputBytes += int64(ab + 8)
			c.sendOutput(ab+8, c.finish)
		})
	})
}

func (c *core) sendOutput(n int, then func()) {
	r := c.r
	if r.outXtra > 0 {
		r.output.SendWithLatency(n, r.outXtra, then)
		return
	}
	r.output.Send(n, then)
}

// StatsSnapshot implements the unified stats interface, reporting the
// hardware-model outcome of the batch under the "axe.batch" layer.
func (b BatchStats) StatsSnapshot() stats.Snapshot {
	return stats.Snapshot{Layer: "axe.batch", Metrics: []stats.Metric{
		{Name: "sim_time", Value: b.SimTime.Seconds(), Unit: "s"},
		{Name: "roots_per_second", Value: b.RootsPerSecond, Unit: "roots/s"},
		{Name: "samples_per_second", Value: b.SamplesPerSecond, Unit: "samples/s"},
		{Name: "local_requests", Value: float64(b.LocalRequests), Unit: "req"},
		{Name: "remote_requests", Value: float64(b.RemoteRequests), Unit: "req"},
		{Name: "local_bytes", Value: float64(b.LocalBytes), Unit: "bytes"},
		{Name: "remote_bytes", Value: float64(b.RemoteBytes), Unit: "bytes"},
		{Name: "output_bytes", Value: float64(b.OutputBytes), Unit: "bytes"},
		{Name: "cache_hit_rate", Value: b.CacheHitRate, Unit: "ratio"},
		{Name: "output_utilization", Value: b.OutputUtilization, Unit: "ratio"},
		{Name: "pipeline_utilization", Value: b.PipelineUtilization, Unit: "ratio"},
		{Name: "sample_utilization", Value: b.SampleUtilization, Unit: "ratio"},
		{Name: "attr_utilization", Value: b.AttrUtilization, Unit: "ratio"},
		{Name: "local_utilization", Value: b.LocalUtilization, Unit: "ratio"},
	}}
}
