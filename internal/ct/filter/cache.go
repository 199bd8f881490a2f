package filter

import (
	"sync"

	"ifdk/internal/ct/geometry"
)

// A Filterer is immutable after construction and safe for concurrent use,
// but building one is expensive: a complex128 transform of the ramp kernel
// into the gain table, the forward and inverse twiddle tables, and an
// Nu×Nv cosine table.
// Every rank of every job needs the same tables for the same (geometry,
// window), so the service-facing entry points share them through this
// process-wide memo — the same shape-keyed reuse the engine pools apply to
// buffers, applied to precomputed state.

type filtererKey struct {
	g   geometry.Params
	win Window
}

var (
	filtererMu    sync.Mutex
	filterers     = map[filtererKey]*Filterer{}
	filtererLimit = 32 // distinct (geometry, window) pairs kept resident
)

// Cached returns a shared Filterer for the geometry and window, building
// and memoizing it on first use. When the memo is full an arbitrary entry
// is dropped: entries are immutable, so losing one only costs a rebuild.
func Cached(g geometry.Params, win Window) (*Filterer, error) {
	key := filtererKey{g: g, win: win}
	filtererMu.Lock()
	f, ok := filterers[key]
	filtererMu.Unlock()
	if ok {
		return f, nil
	}
	f, err := New(g, win) // heavy: build outside the lock
	if err != nil {
		return nil, err
	}
	filtererMu.Lock()
	defer filtererMu.Unlock()
	if prior, ok := filterers[key]; ok {
		return prior, nil // another goroutine won the build race
	}
	if len(filterers) >= filtererLimit {
		for k := range filterers {
			delete(filterers, k)
			break
		}
	}
	filterers[key] = f
	return f, nil
}
