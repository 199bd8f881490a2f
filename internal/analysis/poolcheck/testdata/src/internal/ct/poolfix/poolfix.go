// Package poolfix seeds engine pool ownership-contract violations for
// poolcheck: each want line is a definite violation on every path, and
// the clean functions pin the conservative silences (escapes, branches
// that merge to "maybe") that keep the analyzer false-positive-free.
package poolfix

import (
	"errors"

	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

var (
	images  engine.ImagePool
	scratch engine.BufPool[float32]
	errFull = errors.New("full")
)

func doubleRelease() {
	b := scratch.Acquire(16)
	b.Release()
	b.Release() // want `released again`
}

func useAfterRelease() int {
	b := scratch.Acquire(8)
	b.Release()
	return len(b.Data) // want `use of b after Release`
}

func foreignDonation() {
	img := volume.NewImage(4, 4)
	images.Release(img) // want `was not acquired from the pool`
}

func leakOnEarlyReturn(fail bool) error {
	b := scratch.Acquire(32)
	if fail {
		return errFull // want `not released on this return path`
	}
	b.Release()
	return nil
}

func deferredDouble() {
	b := scratch.Acquire(8)
	defer b.Release()
	b.Release() // want `released here and again by a deferred Release`
}

func scopeLeak(n int) {
	if n > 0 {
		b := scratch.Acquire(n)
		_ = b.Data
	} // want `goes out of scope without Release`
}

// --- clean: ownership transfers and conservative merges stay silent ---

func okDeferred(n int) []float32 {
	b := scratch.Acquire(n)
	defer b.Release()
	out := make([]float32, n)
	copy(out, b.Data)
	return out
}

func okReturnHandsOff() *engine.Buf[float32] {
	b := scratch.Acquire(8)
	return b // ownership moves to the caller
}

func consume(b *engine.Buf[float32]) { b.Release() }

func okCallHandsOff() {
	b := scratch.Acquire(8)
	consume(b) // ownership moves to the callee
}

type parcel struct{ buf *engine.Buf[float32] }

func okStoreHandsOff(out chan parcel) {
	b := scratch.Acquire(8)
	out <- parcel{buf: b} // ownership moves into the container
}

func okClosureHandsOff(run func(func())) {
	b := scratch.Acquire(8)
	run(func() { b.Release() }) // the closure owns the release schedule
}

func okMaybe(flush bool) {
	b := scratch.Acquire(8)
	if flush {
		b.Release()
	}
	// Released on one path only: "maybe" states stay silent by design.
}
