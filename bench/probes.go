package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

const (
	// probeFor is how long each direct-call probe loops.
	probeFor = 500 * time.Millisecond
	// probeBatch is the batch size every probe uses, whatever the
	// workload's own, so probe numbers compare across workloads.
	probeBatch = 32
)

// timeLoop calls f until probeFor has passed and returns calls made and
// time taken.
func timeLoop(f func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < probeFor {
		if err := f(); err != nil {
			return n, time.Since(start), err
		}
		n++
	}
	return n, time.Since(start), nil
}

// runProbes times single layers by calling them directly, off the serving
// path: the sampler over memory and over a budgeted disk store (the
// disk/RAM cliff), the packed frame codec, and BDI. Inputs come from one
// sampled batch of this run's graph.
func runProbes(ctx context.Context, in *inputs, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	roots := workload.NewBatchSource(graphNodes, probeBatch, in.scfg.Seed*1000+997)

	sampleLoop := func(st sampler.Store) (float64, error) {
		s := sampler.New(st, in.scfg)
		n, d, err := timeLoop(func() error {
			res, err := s.Sample(ctx, roots.Next())
			if res != nil {
				res.Release()
			}
			return err
		})
		return ratio(float64(d)/1e3, float64(n*probeBatch)), err
	}
	var err error
	if out["sampler.mem_us_per_root"], err = sampleLoop(sampler.LocalStore{G: in.g}); err != nil {
		return out, fmt.Errorf("probe sampler.mem: %w", err)
	}

	ds, _, err := openShardStore(filepath.Join(dir, "probe-store"), in.g, &store.Stats{})
	if err != nil {
		return out, fmt.Errorf("probe store.disk: %w", err)
	}
	out["store.disk_us_per_root"], err = sampleLoop(ds)
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, fmt.Errorf("probe store.disk: %w", err)
	}

	// One sampled batch supplies the codec and BDI inputs: its vertices in
	// attribute order are what request frames carry.
	res, err := sampler.New(sampler.LocalStore{G: in.g}, in.scfg).Sample(ctx, roots.Next())
	if err != nil {
		return out, fmt.Errorf("probe batch: %w", err)
	}
	ids := sampler.AttrOrder(res)
	res.Release()

	if out["cluster.codec_us_per_frame"], err = probeCodec(ctx, in.g, ids); err != nil {
		return out, fmt.Errorf("probe cluster.codec: %w", err)
	}

	raw := make([]byte, 8*len(ids))
	for i, v := range ids {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	enc := mof.BDICompress(raw)
	buf := make([]byte, 0, len(raw)+16)
	n, d, _ := timeLoop(func() error { buf = mof.AppendBDICompress(buf[:0], raw); return nil })
	out["mof.bdi_enc_mb_s"] = ratio(float64(n*len(raw))/1e6, d.Seconds())
	n, d, err = timeLoop(func() error { _, err := mof.BDIDecompress(enc); return err })
	if err != nil {
		return out, fmt.Errorf("probe mof.bdi: %w", err)
	}
	out["mof.bdi_dec_mb_s"] = ratio(float64(n*len(raw))/1e6, d.Seconds())
	out["mof.bdi_ratio"] = mof.CompressionRatio(len(raw), len(enc))
	return out, nil
}

// probeCodec times one packed frame's client-side codec work: encoding a
// four-request frame (the batch workloads pack ~3.9 requests per frame) and
// decoding the response a server gives to it.
func probeCodec(ctx context.Context, g *graph.Graph, ids []graph.NodeID) (float64, error) {
	subs := []cluster.PackedSubRequest{
		{Op: cluster.OpGetNeighbors, Neighbors: cluster.NeighborsRequest{IDs: ids[1:11]}},
		{Op: cluster.OpGetNeighbors, Neighbors: cluster.NeighborsRequest{IDs: ids[11:21]}},
		{Op: cluster.OpGetAttrs, Attrs: cluster.AttrsRequest{IDs: ids[:60]}},
		{Op: cluster.OpGetAttrs, Attrs: cluster.AttrsRequest{IDs: ids[60:120]}},
	}
	var codec mof.VecCodec
	frame, err := cluster.EncodePackedRequest(subs, true, &codec)
	if err != nil {
		return 0, err
	}
	srv := cluster.NewServer(g, cluster.HashPartitioner{N: 1}, 0)
	resp, err := srv.Handle(ctx, frame)
	if err != nil {
		return 0, err
	}
	n, d, err := timeLoop(func() error {
		if _, err := cluster.EncodePackedRequest(subs, true, &codec); err != nil {
			return err
		}
		_, err := cluster.DecodePackedResponse(resp, 0, &codec)
		return err
	})
	return ratio(float64(d)/1e3, float64(n)), err
}
