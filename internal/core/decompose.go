// Package core implements iFDK, the paper's distributed framework for
// instant high-resolution image reconstruction (Sec. 4): MPI ranks arranged
// in a 2-D grid of R rows × C columns, where
//
//   - each column group independently loads and filters a 1/C share of the
//     projections and exchanges them with an AllGather per projection round
//     (Fig. 3b, left), and
//   - each row group owns one mirrored pair of Z slabs of the output volume
//     (1/R of the voxels, the "2·R sub-volumes" of Fig. 3a) and combines
//     its per-column partial volumes with a single Reduce (Fig. 3b, right).
//
// NewPlan states that decomposition as data, one RankPlan per rank; the
// ranks execute their entries and derive nothing. Inside every rank three
// goroutines — Filtering, Main and Back-projection, connected by two
// buffered channels, the paper's queue-buffers — overlap I/O, filtering,
// communication and back-projection exactly as in Fig. 4.
package core

// Plan is a job's R×C decomposition (Fig. 3, Eq. 5): Ranks[k] is world rank
// k's share. Ranks are numbered column-major (Fig. 3a: column C0 holds ranks
// 0..R-1). The orders in it fix the per-voxel add order, and so the bits:
// Projs and Column fix the order in which a rank back-projects, Row the
// reduce tree that combines a row's partial volumes.
type Plan struct {
	Ranks []RankPlan
}

// RankPlan is one rank's part of a Plan.
type RankPlan struct {
	// Projs are the projections the rank loads and filters, one per
	// AllGather round, in round order.
	Projs []int
	// Column is the rank's column group in gather order: in round r the
	// block gathered from position i is projection Ranks[Column[i]].Projs[r].
	Column []int
	// Row is the rank's row group in reduce order. Row[0] is the row root:
	// it receives the row's reduced slab pair and stores it.
	Row []int
	// Z0 and Z1 bound the lower-half slab [Z0, Z1) of the rank's row; with
	// its Theorem-1 mirror it forms the row's sub-volume.
	Z0, Z1 int
}

// NewPlan validates cfg and decomposes it. Column c takes Np/C consecutive
// projections and its row i the i-th 1/R of them (Eq. 5:
// Nproj_per_rank = Np/(C·R)); row i owns RowSlab(i) and its mirror.
func NewPlan(cfg Config) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	r, c := cfg.R, cfg.C
	quota := cfg.Geometry.Np / (r * c)
	cols, rows := make([][]int, c), make([][]int, r)
	for rank := 0; rank < r*c; rank++ {
		cols[rank/r] = append(cols[rank/r], rank)
		rows[rank%r] = append(rows[rank%r], rank)
	}
	p := Plan{Ranks: make([]RankPlan, r*c)}
	for rank := range p.Ranks {
		rp := &p.Ranks[rank]
		rp.Projs = make([]int, quota)
		for i := range rp.Projs {
			rp.Projs[i] = rank*quota + i
		}
		rp.Column, rp.Row = cols[rank/r], rows[rank%r]
		rp.Z0, rp.Z1 = RowSlab(rank%r, cfg.Geometry.Nz, r)
	}
	return p, nil
}

// RowSlab returns the lower-half Z slab [z0, z1) assigned to a grid row;
// together with its Theorem-1 mirror it forms the row's sub-volume.
func RowSlab(row, nz, r int) (z0, z1 int) {
	h := nz / (2 * r)
	return row * h, (row + 1) * h
}
