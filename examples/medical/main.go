// Medical imaging example: reconstruct the 3-D Shepp–Logan head phantom —
// the standard test object of CT research and the dataset the paper itself
// evaluates with (Sec. 5.1) — from noisy projections, and compare ramp
// windows: the unapodized Ram-Lak filter is sharpest but noisiest, while
// the Hann window trades resolution for noise suppression, which is why
// clinical low-dose protocols apodize.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/pkg/volume"
)

func main() {
	// A head scan: 160 views of a 128² flat-panel detector, 64³ output.
	g := geometry.Default(128, 128, 160, 64, 64, 64)
	head := phantom.SheppLogan3D(g.FOVRadius() * 0.9)

	fmt.Println("scanning the Shepp-Logan head phantom...")
	clean := projector.AnalyticAll(head, g, 0)

	// A low-dose acquisition: Poisson photon statistics at 5·10⁴ photons
	// per detector pixel.
	rng := rand.New(rand.NewSource(7))
	noisy := make([]*volume.Image, len(clean))
	for s, img := range clean {
		noisy[s] = img.Clone()
		projector.AddPoissonNoise(noisy[s], 5e4, rng)
	}

	truth := head.Voxelize(g)
	for _, win := range []filter.Window{filter.RamLak, filter.Hann} {
		vol, err := fdk.Reconstruct(g, noisy, fdk.Config{Window: win})
		if err != nil {
			log.Fatal(err)
		}
		rmse, err := volume.RMSE(truth, vol)
		if err != nil {
			log.Fatal(err)
		}
		// Noise measured in the homogeneous brain region around the
		// centre (density 0.2 in the modified phantom).
		noise := regionStd(vol, 28, 36)
		fmt.Printf("  window %-12s RMSE vs truth %.4f, brain-region noise σ %.4f\n",
			win, rmse, noise)

		name := fmt.Sprintf("medical_%s.png", win)
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := vol.SliceZ(32).WritePNG(f, -0.05, 0.45); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("  wrote %s\n", name)
	}
	fmt.Println("Hann should show lower noise (and slightly softer edges) than Ram-Lak.")
}

// regionStd computes the standard deviation over the central cube
// [lo, hi)³ — a homogeneous region of the phantom.
func regionStd(vol *volume.Volume, lo, hi int) float64 {
	var sum, sumSq float64
	n := 0
	for k := lo; k < hi; k++ {
		for j := lo; j < hi; j++ {
			for i := lo; i < hi; i++ {
				v := float64(vol.At(i, j, k))
				sum += v
				sumSq += v * v
				n++
			}
		}
	}
	mean := sum / float64(n)
	return math.Sqrt(math.Max(0, sumSq/float64(n)-mean*mean))
}
