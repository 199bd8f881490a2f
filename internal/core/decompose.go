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
// Inside every rank three goroutines — Filtering, Main and Back-projection,
// connected by two buffered channels, the paper's queue-buffers — overlap
// I/O, filtering, communication and back-projection exactly as in Fig. 4.
package core

// RankRow returns the grid row of a rank; ranks are numbered column-major
// (Fig. 3a: column C0 holds ranks 0..R-1).
func RankRow(rank, r int) int { return rank % r }

// RankCol returns the grid column of a rank.
func RankCol(rank, r int) int { return rank / r }

// RankID returns the rank at (row, col).
func RankID(row, col, r int) int { return col*r + row }

// ColProjRange returns the half-open range of projection indices owned by
// a column group: column c of C handles Np/C consecutive projections.
func ColProjRange(col, np, c int) (lo, hi int) {
	quota := np / c
	return col * quota, (col + 1) * quota
}

// RankProjRange returns the projections one rank loads and filters:
// its row's 1/R share of its column's range (Eq. 5:
// Nproj_per_rank = Np/(C·R)).
func RankProjRange(row, col, np, r, c int) (lo, hi int) {
	colLo, _ := ColProjRange(col, np, c)
	quota := np / (r * c)
	return colLo + row*quota, colLo + (row+1)*quota
}

// RowSlab returns the lower-half Z slab [z0, z1) assigned to a grid row;
// together with its Theorem-1 mirror it forms the row's sub-volume.
func RowSlab(row, nz, r int) (z0, z1 int) {
	h := nz / (2 * r)
	return row * h, (row + 1) * h
}
