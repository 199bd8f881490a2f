package kernels

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
)

// windowModel replays, in Go, the block decisions of accumColumnsWindowFast
// for column c of a tile row and counts its depths by where they ran: in
// 16-depth windows (a partial last block counts here too), in 8-depth
// windows, or on the portable loop.
func windowModel(g *lanes, c, rw, k0, h int, ry2, ry3, vm1 float32) (w16, w8, portable int) {
	// fits reports whether depths kk … kk+m-1 take one window: no v or
	// mirror is NaN, and for the live samples (v in (−1, rw)) each tap
	// inside the row, clamp(floor(v), 0, rw-2) and the next, lies within
	// the 32 samples from min(max(least floor, 0), rw-32).
	fits := func(kk, m int) bool {
		for _, mirror := range []bool{false, true} {
			var live []int
			least := math.MaxInt
			for d := kk; d < kk+m; d++ {
				v := (g.yb[c] + ry2*float32(k0+d) + ry3) * g.f[c]
				if mirror {
					v = vm1 - v
				}
				if v != v {
					return false
				}
				if v > -1 && v < float32(rw) {
					nv := int(math.Floor(float64(v)))
					live = append(live, nv)
					least = min(least, nv)
				}
			}
			base := min(max(least, 0), rw-2*windowDepth)
			for _, nv := range live {
				if min(max(nv, 0), rw-2)-base > 2*windowDepth-2 {
					return false
				}
			}
		}
		return true
	}
	for kk := 0; kk < h; {
		m := min(windowDepth, h-kk)
		switch {
		case fits(kk, m):
			w16 += m
			kk += windowDepth
		case m <= 8 || !fits(kk, 8):
			portable += min(8, m)
			kk += 8
		case !fits(kk+8, m-8):
			w8 += 8
			portable += m - 8
			kk += windowDepth
		default:
			w8 += m
			kk += windowDepth
		}
	}
	return w16, w8, portable
}

// windowMix runs accumColumnsWindowFast over every tile row of slab [z0,
// z0+h) for every every-th projection of g, checks that the depths it ran
// portable are exactly those windowModel predicts, and returns the model's
// shares of 16-depth windows, 8-depth windows and portable depths.
func windowMix(t *testing.T, g geometry.Params, z0, h, every int) (w16, w8, portable float64) {
	t.Helper()
	rw, rh := g.Nv, g.Nu
	proj := make([]float32, rw*rh)
	rng := rand.New(rand.NewSource(38))
	for n := range proj {
		proj[n] = rng.Float32()
	}
	acc := make([]float32, 2*h*Lanes)
	vm1 := float32(rw - 1)
	var n16, n8, nGo, total int
	for s := 0; s < g.Np; s += every {
		r := geometry.ProjectionMatrix(g, g.Beta(s)).Rows32()
		for i := 0; i < g.Nx; i++ {
			for j0 := 0; j0 < g.Ny; j0 += Lanes {
				n := min(Lanes, g.Ny-j0)
				var lg lanes
				if !columnLanesAVX2(&lg, &r, float32(i), float32(rh-1), j0, n, rw) {
					t.Fatalf("projection %d tile row (%d, %d): a column's u is off the detector", s, i, j0)
				}
				want := 0
				for c := range n {
					a, b, p := windowModel(&lg, c, rw, z0, h, r[1][2], r[1][3], vm1)
					n16, n8, nGo, want = n16+a, n8+b, nGo+p, want+p
				}
				if got := accumColumnsWindowFast(acc, proj, rw, rh, &r, i, j0, n, z0, h, vm1); got != want {
					t.Fatalf("projection %d tile row (%d, %d): %d depths ran portable, the block rules say %d", s, i, j0, got, want)
				}
				total += n * h
			}
		}
	}
	return float64(n16) / float64(total), float64(n8) / float64(total), float64(nGo) / float64(total)
}

// TestWindowTierPaths fails when, on an AVX-512 host, the window tier
// silently hands its work to the portable loop — a fallback passes every
// bit-identity test while losing the speed — and pins where the depths go.
// At volume_heavy's shape (128³ from 256², R = 2: h = 32 on both rank rows)
// at least 95 % of the depths run in 16-depth windows and none runs
// portable: row 0 reaches the detector's edges, and the kernel samples that
// border itself. On a steep geometry (a 96-row detector over 32 planes),
// where 16 depths span more than a window, at least 90 % run in 8-depth
// windows. Everywhere, the depths that ran portable are exactly the ones the
// block rules send there.
func TestWindowTierPaths(t *testing.T) {
	if !hasAVX512() {
		t.Skip("CPU or OS without AVX-512")
	}
	defer SetAVX2(true)()
	defer SetAVX512(true)()
	heavy := geometry.Default(256, 256, 320, 128, 128, 128)
	for row, z0 := range []int{0, 32} {
		w16, w8, portable := windowMix(t, heavy, z0, 32, 37)
		t.Logf("volume_heavy row %d: %.1f %% 16-depth windows, %.1f %% 8-depth, %.2f %% portable", row, 100*w16, 100*w8, 100*portable)
		if w16 < 0.95 || portable > 0 {
			t.Errorf("volume_heavy row %d: %.1f %% of the depths in 16-depth windows and %.2f %% portable, want ≥ 95 %% and none", row, 100*w16, 100*portable)
		}
	}
	steep := geometry.Default(64, 96, 40, 24, 24, 32)
	w16, w8, portable := windowMix(t, steep, 0, 16, 1)
	t.Logf("steep: %.1f %% 16-depth windows, %.1f %% 8-depth, %.2f %% portable", 100*w16, 100*w8, 100*portable)
	if w8 < 0.9 {
		t.Errorf("steep: %.1f %% of the depths in 8-depth windows, want ≥ 90 %%", 100*w8)
	}
}

// ISA names the tier from a fixed set — the value ifdk_build_info{isa}, the
// daemon's start-up log and ifdk-bench print: "avx512" exactly when the
// window tier runs (which needs the AVX2 tier too), "avx2" when only the
// AVX2 tiers do, "go" otherwise; and on this host it reports what the CPU
// and OS support.
func TestISAValues(t *testing.T) {
	for _, c := range []struct {
		avx2, avx512 bool
		want         string
	}{{true, true, "avx512"}, {true, false, "avx2"}, {false, true, "go"}, {false, false, "go"}} {
		restore2, restore512 := SetAVX2(c.avx2), SetAVX512(c.avx512)
		got := ISA()
		restore512()
		restore2()
		if got != c.want {
			t.Errorf("avx2=%v avx512=%v: ISA %q, want %q", c.avx2, c.avx512, got, c.want)
		}
	}
	want := "go"
	if hasAVX2() {
		want = "avx2"
	}
	if hasAVX512() {
		want = "avx512"
	}
	if got := ISA(); got != want {
		t.Errorf("ISA %q on a host whose probes say %q", got, want)
	}
	t.Logf("isa=%s", ISA())
}
