package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/qrch"
	"lsdgnn/internal/riscv"
	"lsdgnn/internal/sampler"
)

// Control-plane integration: the RISC-V controller drives an AxE engine by
// pushing 32-byte command records (8 words) through a QRCH queue. Root node
// IDs live in the shared memory (Table 10's 8MB×2 shared RAM, modeled by a
// riscv.RAM window); sampled node IDs are written back behind the input
// buffer, and a two-word response (txn, count) lands in the response queue.

// Controller is an assembled control plane: RISC-V hart + bus + QRCH hub
// with an AxE engine endpoint.
type Controller struct {
	CPU    *riscv.CPU
	Bus    *riscv.SystemBus
	Hub    *qrch.Hub
	Shared *riscv.RAM
	Engine *axe.Engine

	imem *riscv.RAM
}

// Memory map for the controller.
const (
	IMemBase   = 0x0000_0000
	IMemSize   = 512 << 10
	SharedBase = 0x2000_0000
	SharedSize = 8 << 20
	// EngineQueue is the QRCH queue the AxE listens on.
	EngineQueue = 0
)

// NewController wires a CPU, shared memory and engine together.
func NewController(e *axe.Engine) (*Controller, error) {
	bus := &riscv.SystemBus{}
	imem := riscv.NewRAM(IMemSize)
	shared := riscv.NewRAM(SharedSize)
	if err := bus.Map(IMemBase, IMemSize, imem); err != nil {
		return nil, err
	}
	if err := bus.Map(SharedBase, SharedSize, shared); err != nil {
		return nil, err
	}
	cpu := riscv.NewCPU(bus)
	hub := qrch.NewHub()
	ctl := &Controller{CPU: cpu, Bus: bus, Hub: hub, Shared: shared, Engine: e, imem: imem}
	if err := hub.Attach(EngineQueue, &qrch.Endpoint{
		WordsPerCommand: axe.CommandBytes / 4,
		ResponseLatency: 50,
		Handle:          ctl.handleCommand,
	}); err != nil {
		return nil, err
	}
	cpu.Custom = hub.CustomFn()
	return ctl, nil
}

// LoadProgram assembles source into instruction memory and resets the CPU.
func (c *Controller) LoadProgram(source string) error {
	prog, err := riscv.Assemble(source, IMemBase)
	if err != nil {
		return err
	}
	img := prog.Bytes()
	if len(img) > len(c.imem.Data) {
		return fmt.Errorf("core: program of %d bytes exceeds %d-byte I-MEM", len(img), len(c.imem.Data))
	}
	copy(c.imem.Data, img)
	c.CPU.Reset(IMemBase)
	return nil
}

// handleCommand decodes and executes one AxE command record.
func (c *Controller) handleCommand(words []uint32) []uint32 {
	raw := make([]byte, axe.CommandBytes)
	for i, w := range words {
		binary.LittleEndian.PutUint32(raw[i*4:], w)
	}
	cmd, err := axe.DecodeCommand(raw)
	if err != nil {
		return []uint32{0xFFFF_FFFF, 0}
	}
	resp := c.Execute(cmd)
	return []uint32{uint32(resp.Txn), uint32(resp.Value)}
}

// Execute runs one command against the engine, using shared memory for
// buffers. Returns the response record.
func (c *Controller) Execute(cmd axe.Command) axe.Response {
	fail := func() axe.Response { return axe.Response{Txn: cmd.Txn, Status: 1} }
	switch cmd.Op {
	case axe.OpNop:
		return axe.Response{Txn: cmd.Txn}
	case axe.OpSetCSR:
		c.Engine.CSRs().Write(int(cmd.Arg0), cmd.Arg1)
		return axe.Response{Txn: cmd.Txn}
	case axe.OpReadCSR:
		return axe.Response{Txn: cmd.Txn, Value: uint64(c.Engine.CSRs().Read(int(cmd.Arg0)))}
	case axe.OpSampleNHop:
		roots, ok := c.readRoots(cmd.Arg2, cmd.Arg3)
		if !ok {
			return fail()
		}
		// Sample over the engine's graph, then replay the engine's timing.
		res, err := sampler.New(sampler.LocalStore{G: c.Engine.Graph()}, c.Engine.Config().Sampling).Sample(context.Background(), roots)
		if err != nil {
			return fail()
		}
		c.Engine.RunBatch(res)
		// Write sampled IDs (all hops, flattened) behind the input buffer.
		out := cmd.Arg2 + cmd.Arg3*8
		n := uint64(0)
		for _, hop := range res.Hops {
			for _, v := range hop {
				if !c.writeWord64(out+n*8, uint64(v)) {
					return fail()
				}
				n++
			}
		}
		return axe.Response{Txn: cmd.Txn, Value: n}
	case axe.OpReadNodeAttr:
		roots, ok := c.readRoots(cmd.Arg2, cmd.Arg3)
		if !ok {
			return fail()
		}
		out := cmd.Arg2 + cmd.Arg3*8
		var buf []float32
		n := uint64(0)
		for _, v := range roots {
			buf = c.Engine.Graph().Attr(buf[:0], v)
			for _, f := range buf {
				if !c.writeWord32(out+n*4, math.Float32bits(f)) {
					return fail()
				}
				n++
			}
		}
		return axe.Response{Txn: cmd.Txn, Value: n}
	case axe.OpReadEdgeAttr:
		// Node-pair edge weights: a deterministic hash of (src,dst), the
		// procedural stand-in for stored edge attributes.
		pairs, ok := c.readRoots(cmd.Arg2, cmd.Arg3*2)
		if !ok || len(pairs)%2 != 0 {
			return fail()
		}
		out := cmd.Arg2 + cmd.Arg3*2*8
		n := uint64(0)
		for i := 0; i < len(pairs); i += 2 {
			w := edgeWeight(pairs[i], pairs[i+1])
			if !c.writeWord32(out+n*4, math.Float32bits(w)) {
				return fail()
			}
			n++
		}
		return axe.Response{Txn: cmd.Txn, Value: n}
	case axe.OpNegativeSample:
		roots, ok := c.readRoots(cmd.Arg2, cmd.Arg3)
		if !ok {
			return fail()
		}
		out := cmd.Arg2 + cmd.Arg3*8
		n := uint64(0)
		// Negatives are uniform LCG draws seeded by the command txn.
		seed := cmd.Txn | 1
		nodes := uint64(c.Engine.Graph().NumNodes())
		for range roots {
			for i := uint32(0); i < cmd.Arg1; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				if !c.writeWord64(out+n*8, seed%nodes) {
					return fail()
				}
				n++
			}
		}
		return axe.Response{Txn: cmd.Txn, Value: n}
	default:
		return fail()
	}
}

func (c *Controller) readRoots(addr, count uint64) ([]graph.NodeID, bool) {
	if addr < SharedBase {
		return nil, false
	}
	off := addr - SharedBase
	if off+count*8 > SharedSize {
		return nil, false
	}
	roots := make([]graph.NodeID, count)
	for i := range roots {
		roots[i] = graph.NodeID(binary.LittleEndian.Uint64(c.Shared.Data[off+uint64(i)*8:]))
	}
	return roots, true
}

func (c *Controller) writeWord64(addr, v uint64) bool {
	if addr < SharedBase {
		return false
	}
	off := addr - SharedBase
	if off+8 > SharedSize {
		return false
	}
	binary.LittleEndian.PutUint64(c.Shared.Data[off:], v)
	return true
}

func (c *Controller) writeWord32(addr uint64, v uint32) bool {
	if addr < SharedBase {
		return false
	}
	off := addr - SharedBase
	if off+4 > SharedSize {
		return false
	}
	binary.LittleEndian.PutUint32(c.Shared.Data[off:], v)
	return true
}

// edgeWeight derives a deterministic [0,1) weight from a node pair.
func edgeWeight(src, dst graph.NodeID) float32 {
	h := (uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)) * 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return float32(h>>40) / float32(1<<24)
}
