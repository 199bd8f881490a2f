package kernels_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/pkg/volume"
)

// TestBackprojectBitIdenticalAcrossTiers runs the one Alg. 4 driver behind
// the AccumColumns and AccumColumnsWindow seams through all three of its
// callers' shapes — whole even volumes and whole odd ones through
// backproject.Proposed (untransposed, as the benchmark's probes call it;
// the odd ones add the unpaired centre plane) and slab pairs through
// backproject.ProposedSlabPair (the distributed pipeline) — on the
// reference kernels, the portable fast loop, the AVX2 tier and the AVX-512
// window tier, and requires the four tiers to agree bit for bit (any NaN
// for a NaN). The shapes are:
//
//   - nx = 64 with an off-edge slab pair, and the fleet_mixed ones: nx 16
//     and 32 split over R = 2, 4 and 8 rank rows, slab depths h = 1, 2, 4
//     and 8 with every row's pair, with a ragged Ny (nx+5 columns: tile rows
//     shorter than the kernel's lanes) — all on the gather path;
//   - volume_heavy's 128³ from 256² at R = 2, both rank rows (h = 32; row 0
//     has z0 = 0, where blocks reach the detector's edges and bail);
//   - a steep geometry (a 96-row detector over 32 planes: about 3 rows per
//     plane), where 16-depth windows do not fit and 8-depth ones do;
//   - h = 20, which ends on a partial block;
//   - Nv = 31, one sample short of a window, which must take the gather path;
//   - NaN and ±Inf pixels, on the window and the gather path.
//
// It lives here rather than in package backproject because only this
// directory's tests can reach the unexported tier switches.
func TestBackprojectBitIdenticalAcrossTiers(t *testing.T) {
	type leg struct {
		name string
		run  func() *volume.Volume
	}
	var legs []leg
	// Projections every `every`-th of g's orbit, random pixels, and with
	// poison set a NaN, a +Inf and a −Inf in each. The volume's top and
	// bottom planes project past the detector for near-source columns, so
	// tile rows mix interior depths with border lanes.
	task := func(g geometry.Params, seed int64, every int, poison bool) backproject.Task {
		rng := rand.New(rand.NewSource(seed))
		var task backproject.Task
		for s, m := range geometry.ProjectionMatrices(g) {
			if s%every != 0 {
				continue
			}
			img := volume.NewImage(g.Nu, g.Nv)
			for n := range img.Data {
				img.Data[n] = rng.Float32()
			}
			if poison {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					img.Data[rng.Intn(len(img.Data))] = float32(bad)
				}
			}
			task.Mats = append(task.Mats, m)
			task.Proj = append(task.Proj, img)
		}
		return task
	}
	whole := func(name string, g geometry.Params, tk backproject.Task) {
		legs = append(legs, leg{name, func() *volume.Volume {
			vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
			if err := backproject.Proposed(tk, vol, backproject.Options{}); err != nil {
				t.Fatal(err)
			}
			return vol
		}})
	}
	slab := func(name string, g geometry.Params, tk backproject.Task, z0, z1 int) {
		legs = append(legs, leg{name, func() *volume.Volume {
			vol := volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
			if err := backproject.ProposedSlabPair(tk, vol, backproject.Options{}, g.Nz, z0, z1); err != nil {
				t.Fatal(err)
			}
			return vol
		}})
	}

	// 40 projections: one full batch of 32 and a short one.
	g := geometry.Default(96, 96, 40, 64, 64, 64)
	big := task(g, 14, 1, false)
	whole("Proposed nx=64", g, big)
	odd := g
	odd.Nz = 15
	whole("Proposed nx=64 Nz=15", odd, backproject.Task{Mats: geometry.ProjectionMatrices(odd), Proj: big.Proj})
	slab("ProposedSlabPair nx=64 [8,24)", g, big, 8, 24) // off the volume edge: k0 ≠ 0
	for _, nx := range []int{16, 32} {
		g := geometry.Default(2*nx, 2*nx, 40, nx, nx+5, nx)
		tk := task(g, int64(nx), 1, false)
		for _, r := range []int{2, 4, 8} {
			h := nx / (2 * r)
			for row := range r {
				slab(fmt.Sprintf("ProposedSlabPair nx=%d R=%d h=%d row %d", nx, r, h, row), g, tk, row*h, (row+1)*h)
			}
		}
		odd := g
		odd.Nz = nx - 1
		whole(fmt.Sprintf("Proposed nx=%d Ny=%d Nz=%d", nx, g.Ny, odd.Nz), odd, backproject.Task{Mats: geometry.ProjectionMatrices(odd), Proj: tk.Proj})
	}

	// The window shapes. volume_heavy's orbit is 320 projections; every
	// 20th keeps its geometry at a sixteenth of the cost.
	heavy := geometry.Default(256, 256, 320, 128, 128, 128)
	heavyTask := task(heavy, 38, 20, false)
	slab("volume_heavy R=2 row 0", heavy, heavyTask, 0, 32)
	slab("volume_heavy R=2 row 1", heavy, heavyTask, 32, 64)
	steep := geometry.Default(64, 96, 40, 24, 24, 32)
	slab("steep 96 rows over 32 planes", steep, task(steep, 39, 1, false), 0, 16)
	partial := geometry.Default(64, 64, 40, 24, 21, 80)
	slab("h=20 row 1", partial, task(partial, 40, 1, false), 20, 40)
	short := geometry.Default(48, 31, 40, 24, 24, 32)
	slab("Nv=31", short, task(short, 41, 1, false), 0, 16)
	poisoned := geometry.Default(64, 64, 40, 32, 32, 32)
	slab("NaN/±Inf pixels, window", poisoned, task(poisoned, 42, 1, true), 0, 16)
	slab("NaN/±Inf pixels, gather", poisoned, task(poisoned, 43, 1, true), 4, 8)

	run := func() (vols []*volume.Volume) {
		for _, l := range legs {
			vols = append(vols, l.run())
		}
		return vols
	}
	ref := func() []*volume.Volume {
		defer kernels.UseRef()()
		return run()
	}()
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b }
	for _, tier := range tiers[1:] {
		t.Run(tier.name, func(t *testing.T) {
			defer tier.use(t)()
			for l, got := range run() {
				want := ref[l]
				for n := range want.Data {
					if !same(want.Data[n], got.Data[n]) {
						t.Fatalf("%s: voxel %d = %v, reference kernels give %v", legs[l].name, n, got.Data[n], want.Data[n])
					}
				}
			}
		})
	}
}

// tiers are the legs of a test or benchmark over a kernel with an assembly
// tier: the scalar reference, the portable fast loop, the AVX2 tier with
// AVX-512 off, and the AVX-512 tiers on top of it (which only some kernels
// have: the others run their AVX2 tier again). goTier is the portable leg
// the filter core's tier tests compare the vector legs against.
var tiers = []tier{{name: "ref", ref: true}, {name: "go"}, {name: "avx2", avx2: true}, {name: "avx512", avx2: true, avx512: true}}

var goTier, vectorTiers = tiers[1], tiers[2:]

type tier struct {
	name              string
	ref, avx2, avx512 bool
}

// available reports whether the host can run the tier.
func (t tier) available() bool {
	return (!t.avx2 || kernels.HasAVX2()) && (!t.avx512 || kernels.HasAVX512())
}

// require skips the test or benchmark where the host cannot run the tier.
func (t tier) require(tb testing.TB) {
	tb.Helper()
	if !t.available() {
		tb.Skipf("CPU or OS without the %s tier", t.name)
	}
}

// use pins every dispatching kernel to the tier until restore, and skips
// the test or benchmark where the host cannot run it.
func (t tier) use(tb testing.TB) (restore func()) {
	tb.Helper()
	t.require(tb)
	restore2, restore512 := kernels.SetAVX2(t.avx2), kernels.SetAVX512(t.avx512)
	restoreISA := func() { restore512(); restore2() }
	if !t.ref {
		return restoreISA
	}
	restoreRef := kernels.UseRef()
	return func() { restoreRef(); restoreISA() }
}

// onTier runs fn on the tier's instruction set, which the host must have.
func onTier(tier tier, fn func()) {
	defer kernels.SetAVX2(tier.avx2)()
	defer kernels.SetAVX512(tier.avx512)()
	fn()
}

// sameComplexBits reports the first element at which two rows differ other
// than by which NaN they hold: want from the portable leg, got from tier.
func sameComplexBits(t *testing.T, name, tier string, want, got []complex64) {
	t.Helper()
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
	}
	for i := range want {
		if !same(real(want[i]), real(got[i])) || !same(imag(want[i]), imag(got[i])) {
			t.Fatalf("%s: element %d = %v on %s, %v on go", name, i, got[i], tier, want[i])
		}
	}
}

// TestRadix4BitIdenticalAcrossTiers runs DIF and DIT, forward and inverse,
// at every power of two up to 4096 on the portable passes, on the AVX2 tier
// with AVX-512 off and on the AVX-512 tier, and requires identical bits:
// the assembly performs the portable loop's float32 operations in its
// order, so a fleet of mixed CPUs still re-executes a job bit for bit.
// Trials 7–9 carry a NaN or ±Inf, which must poison the same lanes.
func TestRadix4BitIdenticalAcrossTiers(t *testing.T) {
	for _, tier := range vectorTiers {
		t.Run(tier.name, func(t *testing.T) {
			tier.require(t)
			rng := rand.New(rand.NewSource(28))
			for n := 1; n <= 4096; n <<= 1 {
				for _, inverse := range []bool{false, true} {
					tw := kernels.FFTTwiddles(n, inverse)
					for trial := 0; trial < 10; trial++ {
						x := randC64(rng, n)
						if trial >= 7 {
							bad := [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[trial-7]
							x[rng.Intn(n)] = complex(bad, 1)
						}
						for _, leg := range []struct {
							name string
							fn   func(x, tw []complex64)
						}{{"dif", kernels.DIF}, {"dit", kernels.DIT}} {
							portable := append([]complex64(nil), x...)
							vector := append([]complex64(nil), x...)
							onTier(goTier, func() { leg.fn(portable, tw) })
							onTier(tier, func() { leg.fn(vector, tw) })
							sameComplexBits(t, fmt.Sprintf("%s n=%d inverse=%v trial=%d", leg.name, n, inverse, trial), tier.name, portable, vector)
						}
					}
				}
			}
		})
	}
}

// TestConvolveBitIdenticalAcrossTiers runs the fused spectrum kernel at
// every power of two up to 4096 — both parities of log₂n, so every fused
// small end (AVX2's blocks of 16 and 8, AVX-512's of 64 and 32) and the
// lengths below them — on the portable passes, on AVX2 with AVX-512 off
// and on AVX-512. On each tier it must equal the chain it fuses, DIF →
// SpectralMul → DIT, bit for bit, and each vector tier must equal the
// portable one; trials 7–9 carry a NaN or ±Inf.
func TestConvolveBitIdenticalAcrossTiers(t *testing.T) {
	for _, vt := range vectorTiers {
		t.Run(vt.name, func(t *testing.T) {
			vt.require(t)
			rng := rand.New(rand.NewSource(36))
			for n := 1; n <= 4096; n <<= 1 {
				fwd, inv := kernels.FFTTwiddles(n, false), kernels.FFTTwiddles(n, true)
				for trial := 0; trial < 10; trial++ {
					x := randC64(rng, n)
					if trial >= 7 {
						bad := [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[trial-7]
						x[rng.Intn(n)] = complex(1, bad)
					}
					gain := randF32(rng, n)
					var outs [2][]complex64
					for i, leg := range []tier{goTier, vt} {
						fused := append([]complex64(nil), x...)
						chain := append([]complex64(nil), x...)
						onTier(leg, func() {
							kernels.Convolve(fused, fwd, gain, inv)
							kernels.DIF(chain, fwd)
							kernels.SpectralMul(chain, gain)
							kernels.DIT(chain, inv)
						})
						sameComplexBits(t, fmt.Sprintf("fused vs chain n=%d trial=%d", n, trial), leg.name, chain, fused)
						outs[i] = fused
					}
					sameComplexBits(t, fmt.Sprintf("convolve n=%d trial=%d", n, trial), vt.name, outs[0], outs[1])
				}
			}
		})
	}
}

// TestFusedEndsSignedZeros is the bit trap of the filter's fused ends. The
// first DIF pass drops a − (+0) but must still add +0 where it sums with the
// zero half, since −0 + (+0) = +0, and the last DIT pass computes only the
// kept outputs. Payload rows of +0, of −0, of alternating signed zeros and
// of mixed signs with zeros among them, with cosines and gains of mixed
// signs and zeros, go through ConvolvePairLE and TransposeConvolved at
// every L = 8…1024 — both parities of log₂L, every length where AVX-512
// fuses and the shorter ones that fall back — with Nu = L/2 and Nu = L/4 +
// 1, for a whole group of LinePairs pairs and a short odd one, both
// transform directions. On the go, avx2 and avx512 legs the block must
// equal CosineWeightPairLE, clear, Convolve and TransposePairs on the same
// leg, bit for bit, and on the avx512 leg the fused first pass alone must
// equal the weighting, clear and first pass it replaces: a zero of the
// wrong sign there seldom survives to the block of a long row.
func TestFusedEndsSignedZeros(t *testing.T) {
	for _, tier := range tiers[1:] {
		t.Run(tier.name, func(t *testing.T) {
			defer tier.use(t)()
			rng := rand.New(rand.NewSource(41))
			for l := 8; l <= 1024; l <<= 1 {
				fwd, inv := kernels.FFTTwiddles(l, false), kernels.FFTTwiddles(l, true)
				for _, nu := range []int{l / 2, l/4 + 1} {
					for trial := 0; trial < 4; trial++ {
						for _, rows := range []int{2 * kernels.LinePairs, 5} {
							for _, dir := range [][2][]complex64{{fwd, inv}, {inv, fwd}} {
								name := fmt.Sprintf("L=%d nu=%d trial=%d rows=%d inverse-first=%v", l, nu, trial, rows, &dir[0][0] == &inv[0])
								fusedEndsCase(t, rng, name, dir[0], dir[1], l, nu, rows, trial)
							}
						}
					}
				}
			}
		})
	}
}

// fusedEndsCase runs one TestFusedEndsSignedZeros case on the live tier.
func fusedEndsCase(t *testing.T, rng *rand.Rand, name string, fwd, inv []complex64, l, nu, rows, trial int) {
	t.Helper()
	signedZero := func() float32 {
		if rng.Intn(2) == 0 {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	value := func(i int) float32 {
		switch trial {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		case 2:
			if i%2 == 1 {
				return float32(math.Copysign(0, -1))
			}
			return 0
		}
		if rng.Intn(3) == 0 {
			return signedZero()
		}
		return float32(rng.NormFloat64())
	}
	payload := make([]byte, 4*nu*rows)
	for i := 0; i < nu*rows; i++ {
		binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(value(i)))
	}
	cos := make([]float32, nu*rows)
	for i := range cos {
		if cos[i] = float32(rng.NormFloat64()); trial >= 2 && rng.Intn(4) == 0 {
			cos[i] = signedZero()
		}
	}
	gain := make([]float32, l)
	for i := range gain {
		if gain[i] = float32(rng.NormFloat64()); trial == 2 || trial == 3 && rng.Intn(3) == 0 {
			gain[i] = signedZero()
		}
	}
	zeroLE, zero := make([]byte, 4*nu), make([]float32, nu)
	// The column step of a whole group's runs: 64 bytes (whole
	// non-temporal lines where the block is aligned), 76 (regular stores)
	// and 96 (non-temporal halves).
	stride := rows + [...]int{0, 3, 8, 0}[trial]
	var blocks [2][]float32
	for leg := range blocks {
		stash := make([]complex64, kernels.LinePairs*l)
		for p := 0; 2*p < rows; p++ {
			x := stash[p*l : (p+1)*l]
			src0, cos0 := payload[2*p*4*nu:(2*p+1)*4*nu], cos[2*p*nu:(2*p+1)*nu]
			src1, cos1 := zeroLE, zero
			if 2*p+1 < rows {
				src1, cos1 = payload[(2*p+1)*4*nu:(2*p+2)*4*nu], cos[(2*p+1)*nu:(2*p+2)*nu]
			}
			if leg == 0 && l >= 64 && kernels.ISA() == "avx512" {
				// The first pass alone, before the later passes can wash
				// a wrong zero sign out of the block.
				var first [2][]complex64
				for i := range first {
					first[i] = make([]complex64, l)
					kernels.FirstPassLE(first[i], src0, cos0, src1, cos1, fwd, i == 1)
				}
				for i, want := range first[0] {
					got := first[1][i]
					if math.Float32bits(real(got)) != math.Float32bits(real(want)) || math.Float32bits(imag(got)) != math.Float32bits(imag(want)) {
						t.Fatalf("%s isa=%s: first pass element %d = %v fused, %v unfused", name, kernels.ISA(), i, got, want)
					}
				}
			}
			if leg == 0 {
				kernels.CosineWeightPairLE(x, src0, cos0, src1, cos1)
				clear(x[nu:])
				kernels.Convolve(x, fwd, gain, inv)
			} else {
				kernels.ConvolvePairLE(x, src0, cos0, src1, cos1, fwd, gain, inv, payload[min(len(payload), (2*p+2)*4*nu):])
			}
		}
		blocks[leg] = make([]float32, nu*stride)
		if leg == 0 {
			kernels.TransposePairs(blocks[leg], stride, stash, l, nu, rows)
		} else {
			kernels.TransposeConvolved(blocks[leg], stride, stash, l, nu, rows, inv)
		}
	}
	for i, want := range blocks[0] {
		if got := blocks[1][i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s isa=%s: block[%d] = %v (bits %#x), the chain gives %v (bits %#x)",
				name, kernels.ISA(), i, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

func bitsOf(x []float32) []uint32 {
	out := make([]uint32, len(x))
	for i, v := range x {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestFilterBitIdenticalAcrossTiers runs the whole ramp filter — ApplyEncoded
// from the encoded bytes into a transposed block, ApplyImage from the image,
// and the wrappers ApplyInto and Sweep at three worker counts — on the
// portable passes, on the AVX2 tier with AVX-512 off and on the AVX-512
// tier, one subtest per vector tier, for every window, on every padded
// length L = 8…1024: odd log₂ (Nu 4 → 8, 9 → 32, 48 and 64 → 128, 256 →
// 512, whose small end is the radix-2 pass and its neighbours) and even
// log₂ (Nu 5 → 16, 17 → 64, 100 → 256, 512 → 1024, whose small end is the
// pass over quads and its neighbours); L 8 and 16 are shorter than an
// AVX-512 block and take AVX2's small end on that tier too. It also runs
// odd row counts (last row paired with zeros; 19 rows are one full group of
// eight stored pairs and a short one), and 32 rows, whose column runs take
// the non-temporal stores where a block is aligned. Each vector tier must
// agree with the portable one bit for bit, both stay within 1e-6 of the
// image peak of the same filter on the reference kernels, and on every tier
// ApplyImage must equal ApplyEncoded, and ApplyInto its block transposed,
// bit for bit.
func TestFilterBitIdenticalAcrossTiers(t *testing.T) {
	for _, tier := range vectorTiers {
		t.Run(tier.name, func(t *testing.T) {
			tier.require(t)
			filterAcrossTiers(t, tier)
		})
	}
}

func filterAcrossTiers(t *testing.T, tier tier) {
	for _, nu := range []int{4, 5, 9, 17, 48, 64, 100, 256, 512} {
		for _, nv := range []int{6, 7, 19, 32} {
			g := geometry.Default(nu, nv, 90, 32, 32, 32)
			rng := rand.New(rand.NewSource(int64(nu*10 + nv)))
			ins := make([]*volume.Image, 3)
			for n := range ins {
				ins[n] = volume.NewImage(g.Nu, g.Nv)
				for i := range ins[n].Data {
					ins[n].Data[i] = rng.Float32()*2 - 1
				}
			}
			for _, win := range []filter.Window{filter.RamLak, filter.SheppLogan, filter.Cosine, filter.Hamming, filter.Hann} {
				f, err := filter.New(g, win)
				if err != nil {
					t.Fatal(err)
				}
				// run filters ins[0] with ApplyEncoded, ApplyImage and
				// ApplyInto (checked against each other), then all of ins
				// with Sweep at 1, 2 and 3 workers, on whatever tier is live.
				blob := volume.ImageToBytes(ins[0])
				run := func() (outs []*volume.Image) {
					enc := &volume.Image{W: g.Nv, H: g.Nu, Data: make([]float32, g.Nu*g.Nv)}
					if err := f.ApplyEncoded(blob, enc.Data); err != nil {
						t.Fatal(err)
					}
					img := &volume.Image{W: g.Nv, H: g.Nu, Data: make([]float32, g.Nu*g.Nv)}
					if err := f.ApplyImage(ins[0], img.Data); err != nil {
						t.Fatal(err)
					}
					q := volume.NewImage(g.Nu, g.Nv)
					if err := f.ApplyInto(ins[0], q); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(bitsOf(img.Data), bitsOf(enc.Data)) {
						t.Fatalf("nu=%d nv=%d %v isa=%s: ApplyImage differs from ApplyEncoded of the image's bytes", nu, nv, win, kernels.ISA())
					}
					if !reflect.DeepEqual(bitsOf(q.Transpose().Data), bitsOf(enc.Data)) {
						t.Fatalf("nu=%d nv=%d %v isa=%s: ApplyInto differs from the transposed block", nu, nv, win, kernels.ISA())
					}
					outs = append(outs, q, enc)
					for workers := 1; workers <= 3; workers++ {
						swept := make([]*volume.Image, len(ins))
						for n := range swept {
							swept[n] = volume.NewImage(g.Nu, g.Nv)
						}
						if err := f.Sweep(ins, swept, workers); err != nil {
							t.Fatal(err)
						}
						outs = append(outs, swept...)
					}
					return outs
				}
				ref := func() []*volume.Image {
					defer kernels.UseRef()()
					return run()
				}()
				var portable, vector []*volume.Image
				onTier(goTier, func() { portable = run() })
				onTier(tier, func() { vector = run() })
				for n := range ref {
					name := fmt.Sprintf("nu=%d nv=%d %v output %d", nu, nv, win, n)
					var peak float64
					for _, v := range ref[n].Data {
						peak = math.Max(peak, math.Abs(float64(v)))
					}
					for i, want := range portable[n].Data {
						if got := vector[n].Data[i]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s: pixel %d = %v on %s, %v on go", name, i, got, tier.name, want)
						}
						if d := math.Abs(float64(want)-float64(ref[n].Data[i])) / peak; d > 1e-6 {
							t.Fatalf("%s: pixel %d differs from the reference kernels by %g of the peak", name, i, d)
						}
					}
				}
			}
		}
	}
}
