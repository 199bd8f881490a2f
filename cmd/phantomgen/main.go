// Command phantomgen is the analog of RTK's forward-projection tool the
// paper uses to create its input datasets (Sec. 5.1): it renders cone-beam
// projections of an analytic phantom and writes them to a directory as raw
// .img files (little-endian float32 with a width/height header), optionally
// with Poisson noise and PNG previews.
//
// Example:
//
//	phantomgen -nu 256 -np 180 -phantom shepplogan -o dataset/ -preview 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/pkg/volume"
)

func main() {
	nu := flag.Int("nu", 128, "detector pixels per side")
	np := flag.Int("np", 90, "number of projections over 2π")
	phantomName := flag.String("phantom", "shepplogan", "phantom: shepplogan|sphere|industrial")
	outDir := flag.String("o", "dataset", "output directory")
	noise := flag.Float64("noise", 0, "photons per pixel for Poisson noise (0 = noise-free)")
	seed := flag.Int64("seed", 1, "noise random seed")
	previews := flag.Int("preview", 0, "write PNG previews for the first N projections")
	flag.Parse()

	if err := run(*nu, *np, *phantomName, *outDir, *noise, *seed, *previews); err != nil {
		fmt.Fprintln(os.Stderr, "phantomgen:", err)
		os.Exit(1)
	}
}

func run(nu, np int, phantomName, outDir string, noise float64, seed int64, previews int) error {
	// The volume dimensions only set the geometry's voxel pitch here.
	g := geometry.Default(nu, nu, np, nu/2, nu/2, nu/2)
	var ph phantom.Phantom
	switch phantomName {
	case "shepplogan":
		ph = phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	case "sphere":
		ph = phantom.UniformSphere(g.FOVRadius()*0.55, 1)
	case "industrial":
		ph = phantom.IndustrialBlock(g.FOVRadius() * 0.9)
	default:
		return fmt.Errorf("unknown phantom %q", phantomName)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	fmt.Printf("rendering %d projections of %dx%d (%s)...\n", np, nu, nu, phantomName)
	imgs := projector.AnalyticAll(ph, g, 0)
	for s, img := range imgs {
		if noise > 0 {
			projector.AddPoissonNoise(img, noise, rng)
		}
		path := filepath.Join(outDir, fmt.Sprintf("proj_%06d.img", s))
		if err := os.WriteFile(path, volume.ImageToBytes(img), 0o644); err != nil {
			return err
		}
		if s < previews {
			f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("proj_%06d.png", s)))
			if err != nil {
				return err
			}
			if err := img.WritePNG(f, 0, 0); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
	}
	fmt.Printf("wrote %d projections to %s\n", np, outDir)
	return nil
}
