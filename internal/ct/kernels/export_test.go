package kernels

// HasAVX2, SetAVX2 and UseRef let tests — here and in the external test
// package, which runs whole back-projections — switch the assembly tier on
// and off and route every dispatching kernel to its reference.
var HasAVX2 = hasAVX2

func SetAVX2(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }
}

func UseRef() (restore func()) {
	useFast = false
	return func() { useFast = true }
}
