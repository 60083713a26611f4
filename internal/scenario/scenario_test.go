package scenario

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestFig2ScenarioMatchesPaper(t *testing.T) {
	s := Fig2()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	model, err := s.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n, speedup, err := model.OptimalWorkers(13)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("fig2 scenario optimum = %d, want 9", n)
	}
	if speedup < 3.5 || speedup > 5 {
		t.Errorf("fig2 scenario peak = %v", speedup)
	}
}

func TestFig3ScenarioWeakScaling(t *testing.T) {
	model, err := Fig3().ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := model.SpeedupRelative(50, 100)
	if s < 1.4 || s > 2.1 {
		t.Errorf("fig3 scenario s(100 vs 50) = %v, want ≈ 1.7", s)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.json")
	if err := Fig2().Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != Fig2().Name || back.Workload != Fig2().Workload {
		t.Errorf("round trip changed scenario: %+v", back)
	}
	// The reloaded scenario produces the same model times.
	a, err := Fig2().ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 9} {
		if math.Abs(float64(a.Time(n)-b.Time(n))) > 1e-12 {
			t.Errorf("t(%d) differs after round trip", n)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"name":"x","bogus":1}`))
	if err == nil {
		t.Error("unknown field accepted")
	}
}

func TestDecodeRejectsBadScenario(t *testing.T) {
	cases := []string{
		`{}`,
		`{"name":"x"}`,
		`{"name":"x","workload":{"flops_per_example":1,"batch_size":1,"parameters":1},
		  "hardware":{"preset":"nope"},"protocol":{"kind":"spark","bandwidth_bits_per_sec":1e9}}`,
		`{"name":"x","workload":{"flops_per_example":1,"batch_size":1,"parameters":1},
		  "hardware":{"preset":"xeon-e3-1240"},"protocol":{"kind":"warp-drive"}}`,
		`{"name":"x","workload":{"flops_per_example":1,"batch_size":1,"parameters":1},
		  "hardware":{"preset":"xeon-e3-1240"},"protocol":{"kind":"spark"}}`,
		`{"name":"x","workload":{"flops_per_example":1,"batch_size":1,"parameters":1},
		  "hardware":{"preset":"xeon-e3-1240"},
		  "protocol":{"kind":"spark","bandwidth_bits_per_sec":1e9},"scaling":"diagonal"}`,
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

func TestSharedMemoryNeedsNoBandwidth(t *testing.T) {
	s := Fig2()
	s.Protocol = ProtocolSpec{Kind: "shared-memory"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	model, err := s.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Pure compute: linear speedup.
	if sp := model.Speedup(8); math.Abs(sp-8) > 1e-9 {
		t.Errorf("shared-memory speedup(8) = %v, want 8", sp)
	}
}

func TestCustomHardware(t *testing.T) {
	s := Fig2()
	s.Hardware = HardwareSpec{PeakFlops: 1e12, Efficiency: 0.5}
	model, err := s.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// t_cp(1) = 6·12e6·60000 / 0.5e12.
	wantComp := 6.0 * 12e6 * 60000 / 0.5e12
	got := float64(model.Computation(1))
	if math.Abs(got-wantComp) > 1e-9 {
		t.Errorf("custom hardware t_cp(1) = %v, want %v", got, wantComp)
	}
	// Efficiency defaults to 1 when omitted.
	s.Hardware = HardwareSpec{PeakFlops: 1e12}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxNDefault(t *testing.T) {
	s := Fig2()
	if s.MaxN() != 16 {
		t.Errorf("default MaxN = %d", s.MaxN())
	}
	s.MaxWorkers = 64
	if s.MaxN() != 64 {
		t.Errorf("MaxN = %d", s.MaxN())
	}
}

func TestAllProtocolKinds(t *testing.T) {
	for _, kind := range []string{"linear", "tree", "two-stage-tree", "spark", "ring", "shuffle", "shared-memory"} {
		s := Fig2()
		s.Protocol = ProtocolSpec{Kind: kind, BandwidthBitsPerSec: 1e9}
		if _, err := s.ModelCtx(context.Background()); err != nil {
			t.Errorf("kind %q: %v", kind, err)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConvergenceBlockRoundTrip(t *testing.T) {
	s := Fig3()
	s.Convergence = &ConvergenceSpec{Rule: "diminishing", BaseIterations: 50000, CriticalBatchGrowth: 32}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Convergence == nil || *got.Convergence != *s.Convergence {
		t.Errorf("convergence block lost in round trip: %+v", got.Convergence)
	}
}

func TestValidateRejectsBadConvergenceBlock(t *testing.T) {
	s := Fig3()
	s.Convergence = &ConvergenceSpec{Rule: "warp", BaseIterations: 100}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("bad rule accepted: %v", err)
	}
	s.Convergence = &ConvergenceSpec{Rule: "diminishing", BaseIterations: 100}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "critical_batch_growth") {
		t.Errorf("diminishing without kc accepted: %v", err)
	}
}

func TestProtocolNetworkPresetInScenario(t *testing.T) {
	s := Fig2()
	s.Protocol = ProtocolSpec{Kind: "spark", Network: "gigabit-ethernet"}
	model, err := s.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw := Fig2()
	want, err := raw.ModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// gigabit-ethernet is the Fig. 2 bandwidth, so the models agree.
	for _, n := range []int{1, 4, 9} {
		if model.Time(n) != want.Time(n) {
			t.Errorf("t(%d): preset %v != raw %v", n, model.Time(n), want.Time(n))
		}
	}
	// Preset + raw bandwidth conflict surfaces through validation.
	s.Protocol.BandwidthBitsPerSec = 1e9
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting protocol spec accepted: %v", err)
	}
}
