package experiments

import (
	"fmt"
	"io"
	"math"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/faas"
	"lsdgnn/internal/memsys"
	"lsdgnn/internal/perfmodel"
	"lsdgnn/internal/workload"
)

func init() {
	register("fig14", "PoC per-FPGA sampling rate vs per-vCPU baseline", fig14)
	register("fig15", "analytical model validation against the event simulator", fig15)
}

// pocEngineConfig returns the Table 10 PoC configuration for the event
// simulator: dual-core, 4-channel DDR4, MoF remote, PCIe output.
func pocEngineConfig() axe.Config {
	cfg := axe.DefaultConfig()
	return cfg
}

// Fig14Point is one dataset's measured PoC-vs-vCPU comparison.
type Fig14Point struct {
	Dataset          string
	SimRootsPerSec   float64
	ModelRootsPerSec float64
	VCPURootsPerSec  float64
	VCPUEquivalent   float64
}

// Figure14 runs the PoC event simulation per dataset and compares against
// the calibrated per-vCPU software model (the paper's Figure 14 method:
// measured FPGA rate normalized to per-vCPU software rate).
func Figure14(opts Options) ([]Fig14Point, error) {
	cpu := perfmodel.DefaultCPUModel()
	batch := 256
	if opts.Quick {
		batch = 64
	}
	proj := faas.Figure14(cpu)
	var out []Fig14Point
	for i, ds := range workload.Datasets() {
		g := ds.Build(opts.Seed)
		eng, err := axe.New(g, cluster.HashPartitioner{N: faas.PoCNodes}, 0, pocEngineConfig())
		if err != nil {
			return nil, err
		}
		st := timeBatch(eng, g, batchRoots(g, batch, opts.Seed))
		out = append(out, Fig14Point{
			Dataset:          ds.Name,
			SimRootsPerSec:   st.RootsPerSecond,
			ModelRootsPerSec: proj[i].FPGARootsPerSec,
			VCPURootsPerSec:  proj[i].VCPURootsPerSec,
			VCPUEquivalent:   st.RootsPerSecond / proj[i].VCPURootsPerSec,
		})
	}
	return out, nil
}

func fig14(w io.Writer, opts Options) error {
	pts, err := Figure14(opts)
	if err != nil {
		return err
	}
	header(w, "graph", "FPGA_sim_roots/s", "FPGA_model_roots/s", "vCPU_roots/s", "vCPU_equivalent")
	logsum := 0.0
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0fx\n",
			p.Dataset, p.SimRootsPerSec, p.ModelRootsPerSec, p.VCPURootsPerSec, p.VCPUEquivalent)
		logsum += math.Log(p.VCPUEquivalent)
	}
	fmt.Fprintf(w, "# geomean: one PoC FPGA = %.0f vCPUs (paper: 894)\n",
		math.Exp(logsum/float64(len(pts))))
	return nil
}

// Fig15Point is one validation configuration.
type Fig15Point struct {
	Cores    int
	Mem      string // "PCIe", "1-chn", "2-chn", "4-chn"
	Nodes    int
	SimRoots float64
	ModRoots float64
	ErrPct   float64
	// NoPCIeLimit is the model projection with unlimited output (the
	// right-axis bars of Figure 15).
	NoPCIeLimit float64
}

// fig15Machine mirrors an engine configuration as an analytical machine.
func fig15Machine(cores, channels int, pcieLocal bool) perfmodel.Machine {
	m := perfmodel.Machine{
		Name:               "poc-variant",
		Cores:              cores,
		Window:             64,
		ClockHz:            250e6,
		IssueCyclesPerNode: 4,
		RemoteBW:           memsys.MoFFabric().PeakBytesPerSec,
		RemoteLat:          memsys.MoFFabric().LatencyNs * 1e-9,
		RemoteReqOverhead:  float64(memsys.MoFFabric().OverheadBytes),
		OutputBW:           16e9,
		OutputLat:          950e-9,
	}
	if pcieLocal {
		m.LocalBW, m.LocalLat = 16e9, 950e-9
		m.OutputSharesLocal = true
	} else {
		m.LocalBW, m.LocalLat = float64(channels)*12.8e9, 110e-9
	}
	return m
}

func fig15EngineConfig(cores, channels int, pcieLocal bool) axe.Config {
	cfg := axe.DefaultConfig()
	cfg.Cores = cores
	if pcieLocal {
		cfg.Local = memsys.PCIeHostDRAM()
		cfg.LocalChannels = 1
		cfg.OutputSharesLocal = true
	} else {
		cfg.LocalChannels = channels
	}
	return cfg
}

// Figure15 runs the validation grid: event-sim "measurement" vs analytical
// model across core counts, memory configurations and node counts.
func Figure15(opts Options) ([]Fig15Point, error) {
	g := simGraph(opts)
	ds := simDatasetFor("sim", g)
	spec := workload.DefaultSampling()
	batch := 256
	if opts.Quick {
		batch = 64
	}
	roots := batchRoots(g, batch, opts.Seed)

	mems := []struct {
		name     string
		channels int
		pcie     bool
	}{
		{"PCIe", 1, true},
		{"1-chn", 1, false},
		{"2-chn", 2, false},
		{"4-chn", 4, false},
	}
	coreCounts := []int{1, 2, 4}
	nodeCounts := []int{1, 4}
	if opts.Quick {
		coreCounts = []int{2}
		nodeCounts = []int{4}
	}
	var out []Fig15Point
	for _, nodes := range nodeCounts {
		for _, mem := range mems {
			for _, cores := range coreCounts {
				eng, err := axe.New(g, cluster.HashPartitioner{N: nodes}, 0,
					fig15EngineConfig(cores, mem.channels, mem.pcie))
				if err != nil {
					return nil, err
				}
				st := timeBatch(eng, g, roots)

				w := perfmodel.DeriveWithLines(ds, spec, nodes, 64)
				m := fig15Machine(cores, mem.channels, mem.pcie)
				pred := perfmodel.Predict(m, w)
				mNoLimit := m
				mNoLimit.OutputBW = math.Inf(1)
				mNoLimit.OutputSharesLocal = false
				noLimit := perfmodel.Predict(mNoLimit, w)

				out = append(out, Fig15Point{
					Cores: cores, Mem: mem.name, Nodes: nodes,
					SimRoots:    st.RootsPerSecond,
					ModRoots:    pred.RootsPerSecond,
					ErrPct:      (pred.RootsPerSecond - st.RootsPerSecond) / st.RootsPerSecond * 100,
					NoPCIeLimit: noLimit.RootsPerSecond,
				})
			}
		}
	}
	return out, nil
}

// MeanAbsErr returns the mean |error|% of a Figure 15 run.
func MeanAbsErr(pts []Fig15Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += math.Abs(p.ErrPct)
	}
	return s / float64(len(pts))
}

func fig15(w io.Writer, opts Options) error {
	pts, err := Figure15(opts)
	if err != nil {
		return err
	}
	header(w, "nodes", "mem", "cores", "sim_roots/s", "model_roots/s", "err%", "model_noPCIe")
	for _, p := range pts {
		fmt.Fprintf(w, "%dn\t%s\t%d\t%.0f\t%.0f\t%+.1f%%\t%.0f\n",
			p.Nodes, p.Mem, p.Cores, p.SimRoots, p.ModRoots, p.ErrPct, p.NoPCIeLimit)
	}
	fmt.Fprintf(w, "# mean |err| %.1f%% (paper reports 0.974%% against its own PoC)\n", MeanAbsErr(pts))
	return nil
}
