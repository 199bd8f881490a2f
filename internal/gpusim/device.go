// Package gpusim simulates the GPU back-projection kernels of the paper's
// Sec. 3.3 and Table 3 on a modelled NVIDIA Tesla V100. Go has no CUDA, so
// this package substitutes the real GPU with a sampled access-stream
// simulator (Estimate) that walks a subset of warps, pushes their memory
// transactions through set-associative L1 and 2-D texture cache models,
// counts core operations, and converts the totals into kernel time with a
// roofline model — producing the GUPS numbers of Table 4. It computes no
// voxel values: the algorithms the kernels run are the CPU ones in
// internal/ct/backproject (Standard is RTK-32's Alg. 2, Proposed the shflBP
// kernels' Alg. 4).
//
// The performance mechanisms are the paper's own: the proposed kernel does
// fewer inner products per update (Theorems 2+3 via warp shuffle), halves
// the coordinate work (Theorem 1 symmetry), and — after transposing the
// projections — turns the warp's detector-column accesses into contiguous
// lines, which the L1 path rewards and the texture path tolerates.
package gpusim

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line/sector granularity
	Ways      int // associativity
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	s := c.SizeBytes / (c.LineBytes * c.Ways)
	if s < 1 {
		return 1
	}
	return s
}

// Device models the throughput-relevant parameters of a GPU. Three
// calibration constants capture effects below the model's abstraction
// level; they are fixed once for the device, not per kernel:
//
//   - IssueEff: the achieved fraction of peak FP32 issue rate under real
//     instruction mix and latency (memory-heavy kernels do not dual-issue
//     perfectly);
//   - TexSectorsPerCyc / L1SectorsPerCyc: sector throughput of the texture
//     unit versus the __ldg L1 path (the texture unit filters but serializes
//     quads; the LSU sustains more sectors per cycle on coalesced lines);
//   - UncachedSectorsPerCyc: the latency-limited throughput of scattered
//     global loads that bypass both caches — the reason the paper's Bp-L1
//     column collapses.
type Device struct {
	Name       string
	SMs        int     // streaming multiprocessors
	ClockHz    float64 // SM clock
	CoresPerSM int     // FP32 cores per SM (FMA per cycle)
	DRAMBw     float64 // device memory bandwidth, bytes/s
	MemBytes   int64   // device memory capacity
	L1         CacheConfig
	Tex        CacheConfig

	IssueEff              float64 // achieved fraction of peak FP32 issue rate
	TexSectorsPerCyc      float64 // texture-path sectors per cycle per SM
	TexSamplesPerCyc      float64 // bilinear texture samples per cycle per SM
	L1SectorsPerCyc       float64 // __ldg L1-path sectors per cycle per SM
	UncachedSectorsPerCyc float64 // cache-bypassing load sectors per cycle per SM

	LaunchOH    float64 // kernel launch overhead, seconds
	TransposeBw float64 // effective bandwidth of the projection-transpose kernel, bytes/s
	PCIeBw      float64 // host↔device bandwidth per direction, bytes/s
}

// TeslaV100 returns the model of the paper's evaluation GPU: 80 SMs at
// 1.53 GHz with 64 FP32 cores each (15.7 TFLOP/s), 900 GB/s HBM2 and 16 GB
// of device memory, attached via PCIe gen3 x16 (the paper measured
// 11.9 GB/s per connector, Sec. 5.3.3). The calibration constants were set
// once so the L1-Tran kernel lands near the paper's ~200 GUPS on α ≤ 8
// problems; all relative behaviour then follows from the model.
func TeslaV100() Device {
	return Device{
		Name:       "Tesla V100-PCIe-16GB",
		SMs:        80,
		ClockHz:    1.53e9,
		CoresPerSM: 64,
		DRAMBw:     900e9,
		MemBytes:   16 << 30,
		L1:         CacheConfig{SizeBytes: 64 << 10, LineBytes: 32, Ways: 4},
		Tex:        CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Ways: 8},

		IssueEff:              0.42,
		TexSectorsPerCyc:      1.0,
		TexSamplesPerCyc:      1.0,
		L1SectorsPerCyc:       4.0,
		UncachedSectorsPerCyc: 0.0625,

		LaunchOH:    5e-6,
		TransposeBw: 130e9,
		PCIeBw:      11.9e9,
	}
}

// FP32PerSecond returns the peak FP32 core-op rate (1 FMA = 1 core-op).
func (d Device) FP32PerSecond() float64 {
	return float64(d.SMs) * float64(d.CoresPerSM) * d.ClockHz
}
