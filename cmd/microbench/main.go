// Command microbench runs the micro-benchmarks of the paper's Sec. 4.2.1
// against this repository's substrates and prints the constants that feed
// the performance model:
//
//   - BWload/BWstore — the simulated PFS (IOR analog),
//   - TH_flt — the real CPU filtering stage,
//   - TH_bp — the simulated V100 back-projection kernel (Table 4 analog),
//   - AllGather/Reduce — the in-process MPI collectives (IMB analog),
//   - BWPCIe — the device model (bandwidthTest analog).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/gpusim"
	"ifdk/internal/hpc/mpi"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/perfmodel"
	"ifdk/pkg/volume"
)

func main() {
	nu := flag.Int("nu", 512, "projection side for the filtering benchmark")
	reps := flag.Int("reps", 8, "repetitions per measurement")
	ranks := flag.Int("ranks", 8, "ranks for the collective benchmarks")
	flag.Parse()
	if err := run(*nu, *reps, *ranks); err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}

func run(nu, reps, ranks int) error {
	fmt.Printf("iFDK micro-benchmarks (Sec. 4.2.1 analogs) — kernels=%s isa=%s\n", kernels.Mode(), kernels.ISA())

	// --- PFS (IOR analog): simulated bandwidths by construction.
	store := pfs.New(pfs.ABCIConfig())
	payload := make([]byte, 64<<20)
	wd, err := store.Write("bench/obj", payload)
	if err != nil {
		return err
	}
	_, rd, err := store.Read("bench/obj")
	if err != nil {
		return err
	}
	fmt.Printf("  PFS model   : write %.1f GB/s, read %.1f GB/s (64 MiB object)\n",
		float64(len(payload))/wd.Seconds()/1e9, float64(len(payload))/rd.Seconds()/1e9)

	// --- Filtering (TH_flt): real CPU measurement.
	g := geometry.Default(nu, nu, 64, nu/2, nu/2, nu/2)
	flt, err := filter.New(g, filter.RamLak)
	if err != nil {
		return err
	}
	img := volume.NewImage(g.Nu, g.Nv)
	for n := range img.Data {
		img.Data[n] = float32(n % 97)
	}
	start := time.Now()
	n := 0
	for time.Since(start) < time.Second/2 {
		if _, err := flt.Apply(img); err != nil {
			return err
		}
		n++
	}
	thFlt := float64(n) / time.Since(start).Seconds()
	fmt.Printf("  TH_flt      : %.1f projections/s (%dx%d, this CPU)\n", thFlt, nu, nu)

	// --- Back-projection (TH_bp): simulated V100 kernel.
	pr := geometry.Problem{Nu: 1024, Nv: 1024, Np: 1024, Nx: 512, Ny: 512, Nz: 512}
	rep := gpusim.Estimate(gpusim.TeslaV100(), pr, gpusim.L1Tran, gpusim.EstimateConfig{})
	fmt.Printf("  TH_bp       : %.0f GUPS (L1-Tran on %s, V100 model)\n", rep.GUPS, pr)

	// --- MPI collectives (IMB analog): real in-process measurement.
	blob := make([]float32, 1<<18) // 1 MiB
	agTime, redTime := time.Duration(0), time.Duration(0)
	for i := 0; i < reps; i++ {
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := c.AllGather(blob); err != nil {
				return err
			}
			if c.Rank() == 0 {
				agTime += time.Since(t0)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := c.Reduce(0, blob, mpi.OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				redTime += time.Since(t0)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	bytes := float64(4*len(blob)) * float64(reps)
	fmt.Printf("  AllGather   : %.2f GB/s per rank (%d ranks, 1 MiB blocks, in-process)\n",
		bytes*float64(ranks-1)/agTime.Seconds()/1e9, ranks)
	fmt.Printf("  Reduce      : %.2f GB/s (%d ranks, 1 MiB blocks, in-process)\n",
		bytes/redTime.Seconds()/1e9, ranks)

	// --- PCIe (bandwidthTest analog): device model constant.
	dev := gpusim.TeslaV100()
	fmt.Printf("  BW_PCIe     : %.1f GB/s per connector (device model)\n", dev.PCIeBw/1e9)

	mb := perfmodel.ABCI()
	fmt.Printf("\nABCI model constants used by the scaling experiments: %+v\n", mb)
	return nil
}
