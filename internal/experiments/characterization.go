package experiments

import (
	"context"
	"fmt"
	"io"

	"lsdgnn/internal/core"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/memsys"
	"lsdgnn/internal/workload"
)

func init() {
	register("fig2a", "memory footprint of the six graphs and minimal servers", fig2a)
	register("fig2b", "sampling throughput scaling with 1/5/15 servers", fig2b)
	register("fig2c", "fine-grained structure-access share of memory requests", fig2c)
	register("fig2d", "round-trip latency and bandwidth vs request size", fig2d)
	register("fig2e", "outstanding requests needed to fill link bandwidth (Eq. 3)", fig2e)
	register("fig3", "end-to-end breakdown: sampling share and storage ratio", fig3)
}

// fig2a: footprints and minimal server counts (512 GB servers).
func fig2a(w io.Writer, opts Options) error {
	const serverBytes = 512e9
	header(w, "graph", "nodes", "edges", "attrLen", "footprint_GB", "min_servers")
	for _, ds := range workload.Datasets() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%d\n",
			ds.Name, ds.Nodes, ds.Edges, ds.AttrLen,
			float64(ds.FootprintBytes())/1e9, ds.MinServers(int64(serverBytes)))
	}
	return nil
}

// Fig2bPoint is one scaling measurement.
type Fig2bPoint struct {
	Servers     int
	RootsPerSec float64
	Speedup     float64 // vs 1 server, per-server-normalized ideal = Servers
	RemoteShare float64
}

// Figure2b runs the event-driven cluster model at 1/5/15 servers.
func Figure2b(opts Options) []Fig2bPoint {
	cfg := DefaultScalingConfig()
	if opts.Quick {
		cfg.BatchesPerWorker = 2
		cfg.WorkersPerServer = 4
	}
	var out []Fig2bPoint
	var base float64
	for _, s := range []int{1, 5, 15} {
		c := cfg
		c.Servers = s
		r := SimulateScaling(c)
		p := Fig2bPoint{Servers: s, RootsPerSec: r.RootsPerSecond, RemoteShare: r.RemoteShare}
		if s == 1 {
			base = r.RootsPerSecond
		}
		if base > 0 {
			p.Speedup = r.RootsPerSecond / base
		}
		out = append(out, p)
	}
	return out
}

func fig2b(w io.Writer, opts Options) error {
	header(w, "servers", "roots/s", "speedup_vs_1", "ideal", "remote_share")
	for _, p := range Figure2b(opts) {
		fmt.Fprintf(w, "%d\t%.0f\t%.2fx\t%dx\t%.2f\n",
			p.Servers, p.RootsPerSec, p.Speedup, p.Servers, p.RemoteShare)
	}
	fmt.Fprintln(w, "# sublinear scaling: inter-node communication overhead grows with servers (paper Observation-2)")
	return nil
}

// Fig2cRow is one dataset's access-pattern measurement.
type Fig2cRow struct {
	Dataset        string
	StructureShare float64
	RemoteShare    float64
	AvgStructBytes float64
	AvgAttrBytes   float64
}

// Figure2c measures the structure-access request share by running the real
// distributed sampler over scaled datasets.
func Figure2c(opts Options) ([]Fig2cRow, error) {
	ctx := context.Background()
	var out []Fig2cRow
	batches := 4
	if opts.Quick {
		batches = 1
	}
	for _, ds := range workload.Datasets() {
		sys, err := core.NewSystem(core.Options{Dataset: ds, Servers: 4, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		src := sys.BatchSource(128, opts.Seed)
		for b := 0; b < batches; b++ {
			if _, err := sys.Pipeline.Sample(ctx, src.Next()); err != nil {
				return nil, err
			}
		}
		st := &sys.Client.Access
		out = append(out, Fig2cRow{
			Dataset:        ds.Name,
			StructureShare: st.StructureRequestShare(),
			RemoteShare:    st.RemoteShare(),
			AvgStructBytes: st.AvgRequestBytes(0),
			AvgAttrBytes:   st.AvgRequestBytes(1),
		})
	}
	return out, nil
}

func fig2c(w io.Writer, opts Options) error {
	rows, err := Figure2c(opts)
	if err != nil {
		return err
	}
	header(w, "graph", "structure_req_share", "remote_share", "avg_struct_B", "avg_attr_B")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.0f\t%.0f\n",
			r.Dataset, r.StructureShare*100, r.RemoteShare*100, r.AvgStructBytes, r.AvgAttrBytes)
		sum += r.StructureShare
	}
	fmt.Fprintf(w, "# average structure share %.1f%% (paper reports ≈48%%)\n", sum/float64(len(rows))*100)
	return nil
}

// fig2d: latency and bandwidth vs request size for the three paths.
func fig2d(w io.Writer, opts Options) error {
	paths := []memsys.LinkProfile{memsys.DirectDRAM(), memsys.PCIeHostDRAM(), memsys.RDMARemote()}
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	header(w, "bytes", "DRAM_lat_ns", "PCIe_lat_ns", "RDMA_lat_ns", "RDMA_BW_GBps(win64)", "RDMA_BW_util")
	rdma := paths[2]
	for _, s := range sizes {
		bw := rdma.EffectiveBandwidth(s, 64)
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%.3f\t%.1f%%\n",
			s,
			paths[0].RoundTripLatencyNs(s),
			paths[1].RoundTripLatencyNs(s),
			rdma.RoundTripLatencyNs(s),
			bw/1e9, rdma.BandwidthUtilization(s, 64)*100)
	}
	small := rdma.EffectiveBandwidth(8, 64)
	big := rdma.EffectiveBandwidth(1024, 64)
	fmt.Fprintf(w, "# 8B remote bandwidth is %.0fx below 1024B (paper: ~100x below peak)\n", big/small)
	return nil
}

// fig2e: Equation 3 outstanding-request demand per link bandwidth.
func fig2e(w io.Writer, opts Options) error {
	mix := []memsys.AccessPattern{
		{Bytes: 16, Prob: 0.48}, // structure pointer chasing
		{Bytes: 512, Prob: 0.52},
	}
	lats := []struct {
		name string
		sec  float64
	}{
		{"DRAM_95ns", 95e-9},
		{"PCIe_950ns", 950e-9},
		{"RDMA_3100ns", 3.1e-6},
	}
	header(w, "bandwidth_GBps", "DRAM_95ns", "PCIe_950ns", "RDMA_3100ns")
	for _, gbps := range []float64{16, 25, 50, 100, 200} {
		fmt.Fprintf(w, "%.0f", gbps)
		for _, l := range lats {
			fmt.Fprintf(w, "\t%.0f", memsys.OutstandingDemand(gbps*1e9, l.sec, mix))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# longer latency / higher bandwidth demands more in-flight requests (Eq. 3)")
	return nil
}

// fig3: end-to-end stage breakdown.
func fig3(w io.Writer, opts Options) error {
	p := core.DefaultPipelineModel()
	train := p.SamplingShare(true)
	infer := p.SamplingShare(false)
	fmt.Fprintf(w, "training:  sampling %.0f%% / NN %.0f%%  (paper: 64%% / 36%%)\n", train*100, (1-train)*100)
	fmt.Fprintf(w, "inference: sampling %.0f%% / NN %.0f%%  (paper: 88%% / 12%%)\n", infer*100, (1-infer)*100)
	fmt.Fprintf(w, "graph storage / NN parameters: %.1e (paper: ~5 orders of magnitude)\n", p.StorageRatio())
	return nil
}

// simDatasetFor builds a workload.Dataset view of a generated graph so the
// analytical model and the event simulator describe the same object.
func simDatasetFor(name string, g *graph.Graph) workload.Dataset {
	return workload.Dataset{
		Name:     name,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		AttrLen:  g.AttrLen(),
		SimNodes: g.NumNodes(),
	}
}
