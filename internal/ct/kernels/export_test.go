package kernels

// HasAVX2, HasAVX512, SetAVX2, SetAVX512 and UseRef let tests — here and
// in the external test package, which runs whole back-projections — switch
// the assembly tiers on and off and route every dispatching kernel to its
// reference. The window tier runs only while both are on.
var (
	HasAVX2   = hasAVX2
	HasAVX512 = hasAVX512
)

func SetAVX2(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }
}

func SetAVX512(on bool) (restore func()) {
	prev := useAVX512
	useAVX512 = on
	return func() { useAVX512 = prev }
}

func UseRef() (restore func()) {
	useFast = false
	return func() { useFast = true }
}
