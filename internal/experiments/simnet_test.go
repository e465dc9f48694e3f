package experiments

import "testing"

func TestSimulateScalingSublinear(t *testing.T) {
	cfg := DefaultScalingConfig()
	cfg.BatchesPerWorker = 2
	cfg.WorkersPerServer = 4
	run := func(s int) ScalingResult {
		c := cfg
		c.Servers = s
		return SimulateScaling(c)
	}
	r1, r5 := run(1), run(5)
	if r5.RootsPerSecond <= r1.RootsPerSecond {
		t.Fatal("more servers should still increase aggregate throughput")
	}
	speedup := r5.RootsPerSecond / r1.RootsPerSecond
	if speedup >= 5 {
		t.Fatalf("scaling not sublinear: %v× at 5 servers", speedup)
	}
	if speedup < 2 {
		t.Fatalf("scaling collapsed: %v× at 5 servers", speedup)
	}
	if r1.RemoteShare != 0 {
		t.Fatalf("single server should be all-local, got %v remote", r1.RemoteShare)
	}
	if r5.RemoteShare < 0.7 {
		t.Fatalf("5 servers should be mostly remote, got %v", r5.RemoteShare)
	}
}

func TestSimulateScalingDeterministic(t *testing.T) {
	cfg := DefaultScalingConfig()
	cfg.Servers = 3
	cfg.BatchesPerWorker = 2
	a, b := SimulateScaling(cfg), SimulateScaling(cfg)
	if a.RootsPerSecond != b.RootsPerSecond || a.SimTimeSeconds != b.SimTimeSeconds {
		t.Fatal("scaling simulation not deterministic")
	}
	if a.RootsSampled != int64(cfg.Servers*cfg.WorkersPerServer*cfg.BatchesPerWorker*cfg.BatchSize) {
		t.Fatalf("roots sampled = %d", a.RootsSampled)
	}
}

func TestSimulateScalingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	SimulateScaling(ScalingConfig{})
}
