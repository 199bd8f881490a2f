package kernels

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
)

// windowModel replays, in Go, the block decisions of accumColumnsWindowFast
// for column c of a tile row and counts its depths by where they ran. In a
// slab of at least windowDepth depths: in 16-depth windows (a partial last
// block counts here too), in 8-depth windows, or on the portable loop. In a
// shallow slab the column ran in full windows when both of its halves fit
// their 2h-sample windows, and otherwise (with the rest of its group, which
// windowMix settles) on the portable loop.
func windowModel(g *lanes, c, rw, k0, h int, ry2, ry3, vm1 float32) (full, half, portable int) {
	// fits reports whether depths kk … kk+m-1 take one window of the given
	// width: no v or mirror is NaN, and for the live samples (v in (−1, rw))
	// each tap inside the row, clamp(floor(v), 0, rw-2) and the next, lies
	// within the width samples from min(max(least floor, 0), rw-width).
	fits := func(kk, m, width int) bool {
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
			base := min(max(least, 0), rw-width)
			for _, nv := range live {
				if min(max(nv, 0), rw-2)-base > width-2 {
					return false
				}
			}
		}
		return true
	}
	if shallowWindow(h) {
		if fits(0, h, 2*h) {
			return h, 0, 0
		}
		return 0, 0, h
	}
	for kk := 0; kk < h; {
		m := min(windowDepth, h-kk)
		switch {
		case fits(kk, m, 2*windowDepth):
			full += m
			kk += windowDepth
		case m <= 8 || !fits(kk, 8, 2*windowDepth):
			portable += min(8, m)
			kk += 8
		case !fits(kk+8, m-8, 2*windowDepth):
			half += 8
			portable += m - 8
			kk += windowDepth
		default:
			half += m
			kk += windowDepth
		}
	}
	return full, half, portable
}

// windowMix runs accumColumnsWindowFast over every tile row of slab [z0,
// z0+h) for every every-th projection of g, checks that the depths it ran
// portable are exactly those windowModel predicts, and returns the model's
// shares of full windows, 8-depth windows and portable depths.
func windowMix(t *testing.T, g geometry.Params, z0, h, every int) (full, half, portable float64) {
	t.Helper()
	rw, rh := g.Nv, g.Nu
	proj := make([]float32, rw*rh)
	rng := rand.New(rand.NewSource(38))
	for n := range proj {
		proj[n] = rng.Float32()
	}
	acc := make([]float32, 2*h*Lanes)
	vm1 := float32(rw - 1)
	group := 1
	if shallowWindow(h) {
		group = windowDepth / (2 * h)
	}
	var nFull, nHalf, nGo, total int
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
				for c0 := 0; c0 < n; c0 += group {
					// A shallow group runs portable whole when one of its
					// columns does not fit.
					var f, hf, p int
					for c := c0; c < min(c0+group, n); c++ {
						a, b, q := windowModel(&lg, c, rw, z0, h, r[1][2], r[1][3], vm1)
						f, hf, p = f+a, hf+b, p+q
					}
					if group > 1 && p > 0 {
						f, p = 0, f+p
					}
					nFull, nHalf, nGo, want = nFull+f, nHalf+hf, nGo+p, want+p
				}
				if got := accumColumnsWindowFast(acc, 0, proj, rw, rh, &r, i, 1, j0, n, z0, h, vm1); got != want {
					t.Fatalf("projection %d tile row (%d, %d): %d depths ran portable, the block rules say %d", s, i, j0, got, want)
				}
				total += n * h
			}
		}
	}
	return float64(nFull) / float64(total), float64(nHalf) / float64(total), float64(nGo) / float64(total)
}

// TestWindowTierPaths fails when, on an AVX-512 host, the window tier
// silently hands its work to the portable loop — a fallback passes every
// bit-identity test while losing the speed — and pins where the depths go.
// At volume_heavy's shape (128³ from 256², R = 2: h = 32 on both rank rows)
// at least 95 % of the depths run in 16-depth windows and none runs
// portable: row 0 reaches the detector's edges, and the kernel samples that
// border itself. On every rank row of fleet_mixed's window slabs (h = 8
// from nx 32 at R = 2, h = 4 from nx 32 at R = 4 and nx 16 at R = 2, and
// the nx = 16 verification volume, one h = 8 slab pair) at least 99 % run
// in whole-line windows and none portable. On a steep geometry (a 96-row detector over 32 planes),
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
	for _, c := range []struct{ nu, nx, r int }{{64, 32, 2}, {64, 32, 4}, {32, 16, 2}, {32, 16, 1}} {
		g := geometry.Default(c.nu, c.nu, 2*c.nx, c.nx, c.nx, c.nx)
		h := c.nx / (2 * c.r)
		for row := range c.r {
			full, _, portable := windowMix(t, g, row*h, h, 1)
			t.Logf("fleet_mixed %d² nx=%d R=%d row %d (h=%d): %.1f %% whole-line windows, %.2f %% portable", c.nu, c.nx, c.r, row, h, 100*full, 100*portable)
			if full < 0.99 || portable > 0 {
				t.Errorf("fleet_mixed %d² nx=%d R=%d row %d (h=%d): %.1f %% of the depths in whole-line windows and %.2f %% portable, want ≥ 99 %% and none", c.nu, c.nx, c.r, row, h, 100*full, 100*portable)
			}
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

// TestAccumColumnsWindowTile runs AccumColumnsWindow on whole tiles — 1 to
// 8 tile rows, full and ragged tile rows, accumulators packed and strided
// apart — and requires, on every tier, the bits of AccumColumnsRef run tile
// row by tile row. The geometry aims v down the detector at ±1.9 rows per
// depth (the fleet_mixed slope, which shallow slabs window) or ±0.6, from
// starts that take the outer depths through the detector's border; a tile
// may hold a tile row whose u is off the detector (the tile then runs row
// by row, that row portable) or whose column 0 has a NaN v (its group runs
// portable, and the assembly resumes behind it, in the same row or the
// next). Depths cover the shallow slabs (4, 8), the gather-only ones and
// the block ones (16, 20, 32).
func TestAccumColumnsWindowTile(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const rw, rh = 64, 24
	proj := make([]float32, rw*rh)
	for n := range proj {
		proj[n] = rng.Float32() - 0.25
	}
	var offDetector, resumed int // shallow tiles that ran a row, or a group, portable
	for trial := range 600 {
		h := []int{1, 2, 3, 4, 5, 8, 16, 20, 32}[trial%9]
		rows, n := 1+rng.Intn(Lanes), 1+rng.Intn(Lanes)
		if trial%3 == 0 {
			n = Lanes
		}
		stride := 2 * h * Lanes
		if trial%4 == 1 {
			stride += 1 + rng.Intn(9)
		}
		i0, j0, k0 := rng.Intn(40)-20, rng.Intn(40)-20, rng.Intn(40)-20
		slope := []float32{1.9, -1.9, 0.6, -0.6}[trial%4]
		z := float32(0.8 + 0.4*rng.Float64())
		var r [3][4]float32
		r[2] = [4]float32{0, 0, 0, z}
		r[0] = [4]float32{0.05 * z, 0.05 * z, 0, (2 + rng.Float32()*float32(rh-8)) * z}
		r[0][3] -= r[0][0]*float32(i0) + r[0][1]*float32(j0)
		r[1] = [4]float32{0.01 * z, 0.2 * (rng.Float32() - 0.5) * z, slope * z, 0}
		r[1][3] = (rng.Float32()*float32(rw+8)-4)*z - r[1][2]*float32(k0) - r[1][0]*float32(i0) - r[1][1]*float32(j0)
		switch trial % 7 {
		case 2: // tile row i0+rows-1 has u past the detector's last row
			r[0][0] = float32(rh) * z
		case 5: // column j0 has a NaN v, the others an infinite one
			r[1][1] = float32(math.Inf(1))
			r[1][0] = 0
		}
		vm1 := float32(rw - 1)
		acc := make([]float32, (rows-1)*stride+2*h*Lanes)
		for x := range acc {
			acc[x] = float32(x%7) * -1 // −0 where only an add of +0 makes +0
		}
		want := append([]float32(nil), acc...)
		for q := range rows {
			accumColumnsRef(want[q*stride:], proj, rw, rh, &r, i0+q, j0, n, k0, h, vm1, windowMajor)
		}
		for _, tier := range []struct {
			name         string
			avx2, avx512 bool
		}{{"go", false, false}, {"avx512", true, true}} {
			if tier.avx512 && !hasAVX512() {
				continue
			}
			got := append([]float32(nil), acc...)
			func() {
				defer SetAVX2(tier.avx2)()
				defer SetAVX512(tier.avx512)()
				p := accumColumnsWindowFast(got, stride, proj, rw, rh, &r, i0, rows, j0, n, k0, h, vm1)
				if tier.avx512 && shallowWindow(h) {
					switch {
					case p >= n*h && trial%7 == 2:
						offDetector++
					case p > 0 && p < rows*n*h:
						resumed++
					}
				}
			}()
			for q := range rows {
				for x := q*stride + 2*h*Lanes; x < min((q+1)*stride, len(acc)); x++ {
					if math.Float32bits(got[x]) != math.Float32bits(acc[x]) {
						t.Fatalf("trial %d (%s, h=%d, %d rows, stride %d): float %d between tile rows written", trial, tier.name, h, rows, stride, x)
					}
				}
				for c := range n {
					for kk := range 2 * h {
						x := q*stride + WindowAt(h, c, kk)
						if a, b := got[x], want[x]; math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
							t.Fatalf("trial %d (%s, h=%d, %d rows of %d, stride %d): row %d column %d depth %d = %v, reference %v",
								trial, tier.name, h, rows, n, stride, q, c, kk, a, b)
						}
					}
				}
			}
		}
	}
	if hasAVX512() && (offDetector == 0 || resumed == 0) {
		t.Errorf("shallow tiles with a row off the detector: %d, resumed behind a portable group: %d; want some of each", offDetector, resumed)
	}
	t.Logf("shallow tiles with a row off the detector: %d, resumed behind a portable group: %d", offDetector, resumed)
}

// TestWindowBorderMinusOne pins the window tier's border at v = −1
// exactly, where interp.Bilinear returns 0 and the bordered path must add
// w·(+0): a sample counted live there would weigh the row's first sample
// by dv = 0, which is +0 only while that sample is finite. Every detector
// row here starts with +Inf, and the depths step down 2 rows per depth to
// v = −1 at the slab's last depth (and, with the other pivot, the mirror of
// its first depth at −1), for the shallow slabs and a 16-deep one; the
// accumulators start at −0.
func TestWindowBorderMinusOne(t *testing.T) {
	if !hasAVX512() {
		t.Skip("CPU or OS without AVX-512")
	}
	const rw, rh, k0 = 65, 24, 5
	proj := make([]float32, rw*rh)
	rng := rand.New(rand.NewSource(461))
	for n := range proj {
		proj[n] = rng.Float32()
		if n%rw == 0 {
			proj[n] = float32(math.Inf(1))
		}
	}
	for _, h := range []int{4, 8, 16} {
		// v = (2h−3) − 2kk, exactly, at u = 9.25 in every column.
		r := [3][4]float32{{0, 0, 0, 9.25}, {0, 0, -2, float32(2*k0 + 2*h - 3)}, {0, 0, 0, 1}}
		for _, vm1 := range []float32{rw - 1, float32(2*h - 4)} {
			want := make([]float32, 2*h*Lanes)
			for x := range want {
				want[x] = float32(math.Copysign(0, -1))
			}
			got := append([]float32(nil), want...)
			accumColumnsRef(want, proj, rw, rh, &r, 3, 0, Lanes, k0, h, vm1, windowMajor)
			func() {
				defer SetAVX2(true)()
				defer SetAVX512(true)()
				AccumColumnsWindow(got, 0, proj, rw, rh, &r, 3, 1, 0, Lanes, k0, h, vm1)
			}()
			for x := range want {
				if a, b := got[x], want[x]; math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
					t.Fatalf("h=%d vm1=%v: float %d = %v, reference %v", h, vm1, x, a, b)
				}
			}
		}
	}
}

// WindowFits takes a slab only where the window tier runs: with AVX-512 off
// (an AVX2-only host) fleet_mixed's shallow slabs and volume_heavy's deep
// ones keep the gather, which is then the only vector path.
func TestWindowFitsNeedsTier(t *testing.T) {
	defer SetAVX2(true)()
	defer SetAVX512(false)()
	for _, c := range []struct {
		h, rw int
		step  float64
	}{{4, 64, 1.94}, {8, 64, 1.94}, {8, 32, 1.92}, {32, 256, 2.06}} {
		if WindowFits(c.h, c.rw, c.step) {
			t.Errorf("h=%d Nv=%d at %.2f rows per plane: window kernel with AVX-512 off", c.h, c.rw, c.step)
		}
	}
}
