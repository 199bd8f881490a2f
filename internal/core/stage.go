package core

import (
	"fmt"

	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// StageProjections writes a projection set to the PFS under the dataset
// prefix, using the naming convention the ranks read from.
func StageProjections(store *pfs.PFS, prefix string, imgs []*volume.Image) error {
	if prefix == "" {
		return fmt.Errorf("core: empty dataset prefix")
	}
	for s, img := range imgs {
		if img == nil {
			return fmt.Errorf("core: projection %d is nil", s)
		}
		if _, err := store.WriteProjection(prefix, s, img); err != nil {
			return err
		}
	}
	return nil
}
