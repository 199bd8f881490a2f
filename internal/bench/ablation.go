package bench

import (
	"fmt"
	"strings"
	"time"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// AblationRow measures one back-projection variant on the real CPU — the
// CPU analogue of Table 4's kernel comparison: how much of Alg. 4's win
// comes from the Theorem-1 symmetry, the Theorem-2/3 reuse and the
// transposed layout, respectively.
type AblationRow struct {
	Name    string
	Variant backproject.Variant
	Seconds float64
	MUPS    float64 // mega-updates per second (CPU scale)
}

// Ablation times the standard algorithm and all proposed-variant
// combinations on a synthetic problem of the given size.
func Ablation(n, np int, seed int64) ([]AblationRow, error) {
	g := geometry.Default(2*n, 2*n, np, n, n, n)
	task := syntheticTask(g, seed)
	updates := float64(n) * float64(n) * float64(n) * float64(np)

	var rows []AblationRow
	timeIt := func(name string, f func() error, va backproject.Variant) error {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		sec := time.Since(start).Seconds()
		rows = append(rows, AblationRow{Name: name, Variant: va, Seconds: sec, MUPS: updates / sec / 1e6})
		return nil
	}

	stdVol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	if err := timeIt("standard (Alg 2)", func() error {
		return backproject.Standard(task, stdVol, backproject.Options{})
	}, backproject.Variant{}); err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		va   backproject.Variant
	}{
		{"naive k-major", backproject.Variant{}},
		{"+symmetry", backproject.Variant{Symmetry: true}},
		{"+reuse", backproject.Variant{Reuse: true}},
		{"+transpose", backproject.Variant{Transpose: true}},
		{"+symmetry+reuse", backproject.Variant{Symmetry: true, Reuse: true}},
		{"proposed (Alg 4)", backproject.ProposedVariant},
	}
	for _, v := range variants {
		vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		va := v.va
		if err := timeIt(v.name, func() error {
			return backproject.Ablate(task, vol, backproject.Options{}, va)
		}, va); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func syntheticTask(g geometry.Params, seed int64) backproject.Task {
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g)}
	state := uint64(seed)*2654435761 + 1
	for s := 0; s < g.Np; s++ {
		img := volume.NewImage(g.Nu, g.Nv)
		for n := range img.Data {
			state = state*6364136223846793005 + 1442695040888963407
			img.Data[n] = float32(state>>40) / float32(1<<24)
		}
		task.Proj = append(task.Proj, img)
	}
	return task
}

// RenderAblation formats the rows.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: CPU back-projection variants (design choices of Alg 4)\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s %9s %9s\n", "variant", "symmetry", "reuse", "transpose", "time(s)", "MUPS")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9s %9s %9s %9.3f %9.1f\n",
			r.Name, mark(r.Variant.Symmetry), mark(r.Variant.Reuse), mark(r.Variant.Transpose), r.Seconds, r.MUPS)
	}
	return b.String()
}
