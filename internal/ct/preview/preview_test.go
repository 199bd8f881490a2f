package preview

import (
	"context"
	"math"
	"testing"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

func TestDecimatedGeometry(t *testing.T) {
	g := geometry.Default(64, 64, 64, 32, 32, 32)
	c := Decimated(g, 4)
	if c.Np != 16 || c.Nu != 16 || c.Nv != 16 || c.Nx != 8 || c.Ny != 8 || c.Nz != 8 {
		t.Fatalf("coarse counts = %d,%d,%d / %d,%d,%d", c.Np, c.Nu, c.Nv, c.Nx, c.Ny, c.Nz)
	}
	if c.Du != 4*g.Du || c.Dv != 4*g.Dv || c.Dx != 4*g.Dx || c.Dy != 4*g.Dy || c.Dz != 4*g.Dz {
		t.Fatalf("coarse pitches not scaled ×4: %+v", c)
	}
	if c.SAD != g.SAD || c.SDD != g.SDD {
		t.Fatalf("source-detector distances changed: %+v", c)
	}
	// The physical problem is preserved: detector extent, volume extent and
	// field of view are exactly those of the full geometry.
	if c.Du*float64(c.Nu) != g.Du*float64(g.Nu) || c.Dx*float64(c.Nx) != g.Dx*float64(g.Nx) {
		t.Fatalf("physical extents changed: %+v vs %+v", c, g)
	}
	if c.FOVRadius() != g.FOVRadius() {
		t.Fatalf("FOV radius %g != %g", c.FOVRadius(), g.FOVRadius())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("coarse geometry invalid: %v", err)
	}
}

func TestPlanFor(t *testing.T) {
	// Everything divisible by 4 and large enough: the full factor.
	g := geometry.Default(64, 64, 64, 32, 32, 32)
	p, err := PlanFor(g, 0)
	if err != nil || p.Factor != 4 {
		t.Fatalf("PlanFor = factor %d, err %v; want 4", p.Factor, err)
	}
	// An explicit cap wins over MaxFactor.
	if p, _ = PlanFor(g, 2); p.Factor != 2 {
		t.Fatalf("capped PlanFor = factor %d, want 2", p.Factor)
	}
	// Np = 30 rules out 4, keeps 3 (30 and 48 divisible; coarse dims ≥ 8).
	g3 := geometry.Default(48, 48, 30, 48, 48, 48)
	if p, _ = PlanFor(g3, 0); p.Factor != 3 {
		t.Fatalf("PlanFor(30 projections) = factor %d, want 3", p.Factor)
	}
	// Too small to decimate without falling under minDim: the factor-1
	// fallback, with the coarse problem the full problem.
	small := geometry.Default(16, 16, 16, 12, 12, 12)
	p, err = PlanFor(small, 0)
	if err != nil || p.Factor != 1 || p.Coarse != small {
		t.Fatalf("small PlanFor = %+v, err %v; want factor-1 identity", p, err)
	}
	// Invalid geometry is the only error.
	if _, err = PlanFor(geometry.Params{}, 0); err == nil {
		t.Fatal("PlanFor accepted an invalid geometry")
	}
}

// naiveBlockMean mirrors DecimateInto's documented float32 order — rows
// accumulated first, blocks summed left to right, one multiply by 1/d² —
// so the kernel-backed path must match it bit for bit.
func naiveBlockMean(src *volume.Image, d int) *volume.Image {
	dst := volume.NewImage(src.W/d, src.H/d)
	inv := 1 / float32(d*d)
	acc := make([]float32, src.W)
	for v := 0; v < dst.H; v++ {
		clear(acc)
		for k := 0; k < d; k++ {
			row := src.Row(v*d + k)
			for u := range row {
				acc[u] += row[u]
			}
		}
		for u := 0; u < dst.W; u++ {
			s := float32(0)
			for k := 0; k < d; k++ {
				s += acc[u*d+k]
			}
			dst.Set(u, v, s*inv)
		}
	}
	return dst
}

func TestDecimateIntoMatchesNaive(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		src := volume.NewImage(12*d, 8*d)
		for i := range src.Data {
			src.Data[i] = float32(math.Sin(float64(i)*0.7)) * 3.25
		}
		dst := volume.NewImage(12, 8)
		if err := DecimateInto(dst, src, d); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		want := naiveBlockMean(src, d)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("d=%d: pixel %d = %v, want %v", d, i, dst.Data[i], want.Data[i])
			}
		}
	}
	// Dimension mismatches and non-positive factors are rejected.
	if err := DecimateInto(volume.NewImage(5, 4), volume.NewImage(12, 8), 2); err == nil {
		t.Fatal("DecimateInto accepted mismatched dimensions")
	}
	if err := DecimateInto(volume.NewImage(6, 4), volume.NewImage(12, 8), 0); err == nil {
		t.Fatal("DecimateInto accepted factor 0")
	}
}

// previewFixture builds a full-resolution projection set and the plan for
// its preview.
func previewFixture(t testing.TB, g geometry.Params, maxFactor int) (Plan, []*volume.Image) {
	t.Helper()
	plan, err := PlanFor(g, maxFactor)
	if err != nil {
		t.Fatal(err)
	}
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	return plan, projector.AnalyticAll(ph, g, 0)
}

func readFrom(proj []*volume.Image) func(dst *volume.Image, s int) error {
	return func(dst *volume.Image, s int) error {
		copy(dst.Data, proj[s].Data)
		return nil
	}
}

// The preview pipeline is the plain coarse pipeline: reconstructing through
// Plan.Reconstruct must be bit-identical to decimating by hand and running
// the stock fdk.Reconstruct on the coarse problem.
func TestReconstructMatchesDirectCoarse(t *testing.T) {
	g := geometry.Default(32, 32, 32, 16, 16, 16)
	plan, proj := previewFixture(t, g, 2)
	if plan.Factor != 2 {
		t.Fatalf("factor %d, want 2", plan.Factor)
	}
	got, tm, err := plan.Reconstruct(context.Background(), readFrom(proj), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}

	coarse := make([]*volume.Image, plan.Coarse.Np)
	for i := range coarse {
		coarse[i] = volume.NewImage(plan.Coarse.Nu, plan.Coarse.Nv)
		if err := DecimateInto(coarse[i], proj[i*plan.Factor], plan.Factor); err != nil {
			t.Fatal(err)
		}
	}
	want, err := fdk.Reconstruct(plan.Coarse, coarse, fdk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Nx != plan.Coarse.Nx || got.Nz != plan.Coarse.Nz {
		t.Fatalf("preview volume is %dx%dx%d, want coarse grid", got.Nx, got.Ny, got.Nz)
	}
	rmse, err := volume.RMSE(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if rmse != 0 {
		t.Fatalf("preview diverges from direct coarse reconstruction: RMSE %g", rmse)
	}
}

// Determinism across runs: the preview is served, cached and
// journal-replayed as a pure function of the dataset, so rebuilding it on
// warm pools must not change a single bit. (Worker-count invariance of the
// stages underneath is pinned by the filter and backproject tests.)
func TestReconstructDeterministic(t *testing.T) {
	g := geometry.Default(32, 32, 32, 16, 16, 16)
	plan, proj := previewFixture(t, g, 2)
	var ref *volume.Volume
	for run := 0; run < 3; run++ {
		vol, _, err := plan.Reconstruct(context.Background(), readFrom(proj), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vol
			continue
		}
		rmse, err := volume.RMSE(ref, vol)
		if err != nil {
			t.Fatal(err)
		}
		if rmse != 0 {
			t.Fatalf("run %d changed the preview: RMSE %g", run, rmse)
		}
	}
}

// A cancelled context aborts between projections without leaking pooled
// buffers.
func TestReconstructCancel(t *testing.T) {
	g := geometry.Default(32, 32, 32, 16, 16, 16)
	plan, proj := previewFixture(t, g, 2)
	before := engine.InUseBytes()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	read := func(dst *volume.Image, s int) error {
		if n++; n == 3 {
			cancel()
		}
		copy(dst.Data, proj[s].Data)
		return nil
	}
	if _, _, err := plan.Reconstruct(ctx, read, Options{}); err == nil {
		t.Fatal("cancelled Reconstruct returned no error")
	}
	if after := engine.InUseBytes(); after != before {
		t.Fatalf("pooled bytes leaked across cancel: %d -> %d", before, after)
	}
}

// DecimateInto's steady state must stay allocation-free.
func TestDecimateIntoNoAllocs(t *testing.T) {
	src := volume.NewImage(64, 64)
	dst := volume.NewImage(16, 16)
	if err := DecimateInto(dst, src, 4); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := DecimateInto(dst, src, 4); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("DecimateInto allocates %.1f times per call in steady state", avg)
	}
}

func BenchmarkPreviewDecimate(b *testing.B) {
	src := volume.NewImage(512, 512)
	for i := range src.Data {
		src.Data[i] = float32(i % 97)
	}
	dst := volume.NewImage(128, 128)
	b.SetBytes(int64(4 * len(src.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecimateInto(dst, src, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreviewReconstruct(b *testing.B) {
	g := geometry.Default(64, 64, 64, 32, 32, 32)
	plan, proj := previewFixture(b, g, 0)
	read := readFrom(proj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vol, _, err := plan.Reconstruct(context.Background(), read, Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = vol
	}
}
