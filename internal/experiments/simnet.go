package experiments

import (
	"lsdgnn/internal/eventsim"
)

// Event-driven performance model of the distributed sampling control plane,
// used for the server-scaling characterization of Figure 2(b). Workers and
// servers exchange batched RPCs over per-server NIC links; servers and
// workers are serial CPU resources. Payloads are modeled by size only:
// cluster.Client/Server cover the functional path, this one the timing.

// ScalingConfig parameterizes one scaling simulation.
type ScalingConfig struct {
	Servers          int
	WorkersPerServer int
	// BatchesPerWorker bounds the simulation length.
	BatchesPerWorker int

	BatchSize    int
	Fanouts      []int
	NegativeRate int
	AvgDegree    float64
	AttrBytes    int

	// NetLatency is the one-way network propagation latency.
	NetLatency eventsim.Time
	// NICBytesPerSec is each server's NIC bandwidth (each direction).
	NICBytesPerSec float64
	// ServerNsPerItem is server CPU time per id served (lookup+copy).
	ServerNsPerItem float64
	// WorkerNsPerItem is worker CPU time per candidate examined.
	WorkerNsPerItem float64
	// RemoteItemNsOverhead is extra CPU per remote item on the requester
	// (serialization, copies, protocol bookkeeping) — the software
	// communication overhead that makes scaling sublinear.
	RemoteItemNsOverhead float64
	// RPCOverheadBytes is fixed per-message framing.
	RPCOverheadBytes int
}

// DefaultScalingConfig returns parameters calibrated to a commodity
// datacenter: 25 µs RPC latency, 12.5 GB/s NIC, and CPU costs measured from
// the software sampler.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Servers:              1,
		WorkersPerServer:     6,
		BatchesPerWorker:     4,
		BatchSize:            512,
		Fanouts:              []int{10, 10},
		NegativeRate:         10,
		AvgDegree:            12,
		AttrBytes:            128 * 4,
		NetLatency:           25 * eventsim.Microsecond,
		NICBytesPerSec:       12.5e9,
		ServerNsPerItem:      55,
		WorkerNsPerItem:      18,
		RemoteItemNsOverhead: 260,
		RPCOverheadBytes:     120,
	}
}

// ScalingResult reports one simulated configuration.
type ScalingResult struct {
	Servers        int
	Workers        int
	RootsSampled   int64
	SimTimeSeconds float64
	// RootsPerSecond is the aggregate sampling throughput.
	RootsPerSecond float64
	// RemoteShare is the fraction of served items that crossed machines.
	RemoteShare float64
	// NICUtilization is the mean egress utilization across servers.
	NICUtilization float64
}

type simServer struct {
	ingress *eventsim.Link
	egress  *eventsim.Link
	cpu     *eventsim.FIFO
}

// SimulateScaling runs the event-driven model and returns aggregate
// throughput. Deterministic: no randomness is involved (payload sizes use
// expected values).
func SimulateScaling(cfg ScalingConfig) ScalingResult {
	if cfg.Servers < 1 || cfg.WorkersPerServer < 1 || cfg.BatchesPerWorker < 1 {
		panic("experiments: scaling config must have ≥1 server, worker and batch")
	}
	sim := eventsim.New()
	servers := make([]*simServer, cfg.Servers)
	for i := range servers {
		servers[i] = &simServer{
			ingress: eventsim.NewLink(sim, cfg.NICBytesPerSec, cfg.NetLatency),
			egress:  eventsim.NewLink(sim, cfg.NICBytesPerSec, cfg.NetLatency),
			cpu:     eventsim.NewFIFO(sim),
		}
		servers[i].ingress.PerMessageOverheadBytes = cfg.RPCOverheadBytes
		servers[i].egress.PerMessageOverheadBytes = cfg.RPCOverheadBytes
	}

	totalWorkers := cfg.Servers * cfg.WorkersPerServer
	workerCPUs := make([]*eventsim.FIFO, totalWorkers)
	for i := range workerCPUs {
		workerCPUs[i] = eventsim.NewFIFO(sim)
	}

	var localItems, remoteItems int64
	var rootsDone int64

	// rpcRound fans one hop's requests out to all servers and calls done
	// when every response has arrived. items is the total id count;
	// respBytesPerItem sizes the response payload.
	var rpcRound func(worker int, items int, reqBytesPerItem, respBytesPerItem float64, done func())
	rpcRound = func(worker int, items int, reqBytesPerItem, respBytesPerItem float64, done func()) {
		home := worker % cfg.Servers
		per := items / cfg.Servers
		rem := items % cfg.Servers
		outstanding := 0
		arrived := func() {
			outstanding--
			if outstanding == 0 {
				done()
			}
		}
		for s := 0; s < cfg.Servers; s++ {
			n := per
			if s < rem {
				n++
			}
			if n == 0 {
				continue
			}
			outstanding++
			srv := servers[s]
			serve := func(n int, srv *simServer, local bool) {
				srv.cpu.Submit(eventsim.Time(float64(n)*cfg.ServerNsPerItem)*eventsim.Nanosecond, func() {
					if local {
						// Local partition: response skips the NIC.
						arrived()
						return
					}
					srv.egress.Send(int(float64(n)*respBytesPerItem), arrived)
				})
			}
			if s == home {
				localItems += int64(n)
				serve(n, srv, true)
			} else {
				remoteItems += int64(n)
				nLocal := n
				srvLocal := srv
				// Requester-side serialization occupies the worker's CPU
				// before the request hits the wire.
				workerCPUs[worker].Submit(
					eventsim.Time(float64(n)*cfg.RemoteItemNsOverhead)*eventsim.Nanosecond,
					func() {
						srvLocal.ingress.Send(int(float64(nLocal)*reqBytesPerItem), func() {
							serve(nLocal, srvLocal, false)
						})
					})
			}
		}
		if outstanding == 0 {
			done()
		}
	}

	negPerBatch := cfg.BatchSize * cfg.NegativeRate
	for w := 0; w < totalWorkers; w++ {
		worker := w
		var runBatch func(remaining int)
		runBatch = func(remaining int) {
			if remaining == 0 {
				return
			}
			frontier := cfg.BatchSize
			hop := 0
			var nextHop func()
			nextHop = func() {
				if hop >= len(cfg.Fanouts) {
					// Attribute fetch: roots + all sampled + negatives.
					attrIds := cfg.BatchSize + negPerBatch
					f := cfg.BatchSize
					for _, fo := range cfg.Fanouts {
						f *= fo
						attrIds += f
					}
					rpcRound(worker, attrIds, 8, float64(cfg.AttrBytes), func() {
						rootsDone += int64(cfg.BatchSize)
						runBatch(remaining - 1)
					})
					return
				}
				fanout := cfg.Fanouts[hop]
				cur := frontier
				// Neighbor fetch for the frontier, then worker-side sampling
				// compute over all returned candidates.
				rpcRound(worker, cur, 8, cfg.AvgDegree*8, func() {
					candidates := float64(cur) * cfg.AvgDegree
					compute := eventsim.Time(candidates*cfg.WorkerNsPerItem) * eventsim.Nanosecond
					sim.After(compute, func() {
						frontier = cur * fanout
						hop++
						nextHop()
					})
				})
			}
			nextHop()
		}
		runBatch(cfg.BatchesPerWorker)
	}

	sim.Run()
	elapsed := sim.Now().Seconds()
	res := ScalingResult{
		Servers:        cfg.Servers,
		Workers:        totalWorkers,
		RootsSampled:   rootsDone,
		SimTimeSeconds: elapsed,
	}
	if elapsed > 0 {
		res.RootsPerSecond = float64(rootsDone) / elapsed
	}
	if t := localItems + remoteItems; t > 0 {
		res.RemoteShare = float64(remoteItems) / float64(t)
	}
	var util float64
	for _, s := range servers {
		util += s.egress.Utilization()
	}
	res.NICUtilization = util / float64(len(servers))
	return res
}
