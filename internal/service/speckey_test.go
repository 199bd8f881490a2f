package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// SpecKey is the router's sharding key; if it ever drifts from the key
// Submit derives internally, fleet placement and per-node cache affinity
// silently break. Pin them together.
func TestSpecKeyMatchesSubmitKey(t *testing.T) {
	m := NewManager(Options{Workers: 1, CacheBytes: -1})
	defer shutdown(t, m)
	specs := []Spec{
		{},
		{Phantom: "sphere", NX: 16, NP: 96},
		{Phantom: "industrial", NX: 24, NU: 64, NP: 48, R: 2, C: 2, Window: "hann"},
		{Phantom: "shepplogan", NX: 16, Verify: true, Priority: "high", Client: "alice"},
	}
	for i, s := range specs {
		key, err := SpecKey(s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		v, err := m.Submit(s)
		if err != nil {
			t.Fatalf("spec %d submit: %v", i, err)
		}
		j, ok := m.job(v.ID)
		if !ok {
			t.Fatalf("spec %d: job %s vanished", i, v.ID)
		}
		if j.cacheKey != key {
			t.Errorf("spec %d: SpecKey %s != Submit's key %s", i, key, j.cacheKey)
		}
	}
	// Verify/Priority/Client must NOT shard (they do not change the
	// reconstruction), while geometry must.
	base := Spec{Phantom: "sphere", NX: 16}
	k0, _ := SpecKey(base)
	same := base
	same.Verify, same.Priority, same.Client = true, "high", "bob"
	if k1, _ := SpecKey(same); k1 != k0 {
		t.Error("verify/priority/client changed the sharding key")
	}
	diff := base
	diff.NX = 32
	if k2, _ := SpecKey(diff); k2 == k0 {
		t.Error("different geometry produced the same sharding key")
	}
	if _, err := SpecKey(Spec{Phantom: "banana"}); err == nil {
		t.Error("SpecKey accepted an invalid spec")
	}
}

// The cache key is the SHA-256 of core.Config's JSON, so an exported
// Config field added, renamed or set differently moves every key, misses
// every cache and reroutes the fleet. These are today's keys of one full,
// one preview and one progressive spec; a change that moves one must say
// why.
func TestCacheKeyPinned(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		key  string
	}{
		{Spec{Phantom: "shepplogan", NX: 32, NP: 64, R: 2, C: 2},
			"876b8ef256d31aeaf194350091db7726144b82f5fce1be03e03830635f316b5e"},
		{Spec{Phantom: "sphere", NX: 16, Quality: "preview"},
			"fda68de6ffe77bb958ad0939285e8c9c48110b70469c0f275bec11f95fccbdd5.p2"},
		{Spec{Phantom: "industrial", NX: 24, R: 1, C: 2, Window: "hann", Quality: "progressive"},
			"c7e56d401d1796f95ccdb5f26ef8bde72a0ba8e538726ecad5a0ca6128e85cd7"},
	} {
		key, err := SpecKey(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if key != c.key {
			t.Errorf("%+v: key %s, pinned %s", c.spec, key, c.key)
		}
	}
}

// FuzzResolveSpec: whatever JSON a client posts as a Spec, resolving it
// never panics; a spec it accepts is inside the admission limits with
// positive dimensions, resolves to the same keys a second time, and stages
// a dataset whose prefix follows the phantom and the geometry.
func FuzzResolveSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"phantom":"shepplogan","nx":32,"r":2,"c":2,"verify":true}`,
		`{"phantom":"sphere","nx":128,"nu":256,"np":320,"r":2,"c":2,"quality":"progressive"}`,
		`{"phantom":"industrial","nx":16,"np":40,"r":4,"c":2,"window":"hann","quality":"preview","priority":"high"}`,
		`{"nx":256,"nu":1024,"np":4096,"r":8,"c":8}`,
		`{"nx":257}`,
		`{"nx":-5,"nu":-1,"np":-1,"r":-1,"c":-1}`,
		`{"r":64,"c":64}`,
		`{"r":4294967296,"c":4294967296}`, // R·C wraps to 0
		`{"r":4611686018427387905,"c":4}`, // R·C wraps to 4
		`{"nx":"16"}`,
		`{"phantom":"cube"}`,
		`{"window":"box"}`,
		`[1,2]`,
		`{"client":"` + strings.Repeat("c", maxClient+1) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		r, err := resolveSpec(spec)
		if err != nil {
			return
		}
		s, g := r.spec, r.cfg.Geometry
		if s.NX < 1 || s.NX > maxNX || s.NU < 1 || s.NU > maxNU || s.NP < 1 || s.NP > maxNP ||
			s.R < 1 || s.C < 1 || s.R > maxRanks || s.C > maxRanks || s.R*s.C > maxRanks || len(s.Client) > maxClient {
			t.Fatalf("accepted a spec outside the admission limits: %+v", s)
		}
		if g.Nu != s.NU || g.Nv != s.NU || g.Np != s.NP || g.Nx != s.NX || g.Ny != s.NX || g.Nz != s.NX {
			t.Fatalf("spec %+v resolved to geometry %+v", s, g)
		}
		again, err := resolveSpec(spec)
		if err != nil || again.key != r.key || again.fullKey != r.fullKey ||
			again.prevKey != r.prevKey || again.cfg.InputPrefix != r.cfg.InputPrefix {
			t.Fatalf("resolving %+v twice disagreed: %v", spec, err)
		}
		otherPhantom := spec
		otherPhantom.Phantom = map[string]string{"shepplogan": "sphere", "sphere": "industrial"}[s.Phantom]
		if otherPhantom.Phantom == "" {
			otherPhantom.Phantom = "shepplogan"
		}
		otherGeometry := spec
		otherGeometry.NP = s.NP + s.R*s.C // still a multiple of R·C
		for _, o := range []Spec{otherPhantom, otherGeometry} {
			if ro, err := resolveSpec(o); err == nil && ro.cfg.InputPrefix == r.cfg.InputPrefix {
				t.Fatalf("specs %+v and %+v share dataset prefix %s", s, ro.spec, r.cfg.InputPrefix)
			}
		}
	})
}
