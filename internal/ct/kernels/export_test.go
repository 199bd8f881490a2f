package kernels

// HasAVX2 and SetAVX2 let tests — here and in the external test package,
// which runs whole back-projections — switch the assembly tier on and off.
var HasAVX2 = hasAVX2

func SetAVX2(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }
}
