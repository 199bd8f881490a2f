package service

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
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

// The cache key is the SHA-256 of keyV1's JSON, so a change to the
// encoding moves every key, misses every cache and reroutes the fleet.
// These are the keys of one full, one preview and one progressive spec,
// unchanged since they were first pinned over core.Config's JSON; a change
// that moves one must say why.
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
		if err != nil || again.cacheKey != r.cacheKey || again.fullKey != r.fullKey ||
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

// The dataset prefixes of TestCacheKeyPinned's three specs. A prefix is
// folded into its result key, and it names the scan on the PFS.
func TestDatasetPrefixPinned(t *testing.T) {
	for _, c := range []struct {
		spec   Spec
		prefix string
	}{
		{Spec{Phantom: "shepplogan", NX: 32, NP: 64, R: 2, C: 2}, "ds/2e3200301d21f789"},
		{Spec{Phantom: "sphere", NX: 16, Quality: "preview"}, "ds/0e16a5621967040d"},
		{Spec{Phantom: "industrial", NX: 24, R: 1, C: 2, Window: "hann", Quality: "progressive"}, "ds/68f729c0f932c9f1"},
	} {
		r, err := resolveSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.cfg.InputPrefix != c.prefix {
			t.Errorf("%+v: dataset prefix %s, pinned %s", c.spec, r.cfg.InputPrefix, c.prefix)
		}
	}
}

func testCfg(nx int) core.Config {
	return core.Config{
		R: 2, C: 2,
		Geometry:    geometry.Default(2*nx, 2*nx, 2*nx, nx, nx, nx),
		InputPrefix: "ds/abc",
	}
}

// The key must ignore the per-job fields (output prefix, assembly, hooks)
// and change with anything that changes the reconstruction.
func TestCacheKeyNormalization(t *testing.T) {
	a := testCfg(16)
	b := testCfg(16)
	b.OutputPrefix = "jobs/j1/out"
	b.Progress = func(int, int) {}
	if resultKey(a) != resultKey(b) {
		t.Error("output prefix / progress changed the key")
	}
	f := testCfg(16)
	f.AssembleVolume = true
	f.SliceWritten = func(int, *volume.Image, int, int) {}
	if resultKey(a) != resultKey(f) {
		t.Error("assembly / slice hook changed the key")
	}
	c := testCfg(16)
	c.InputPrefix = "ds/other"
	if resultKey(a) == resultKey(c) {
		t.Error("input prefix did not change the key")
	}
	d := testCfg(16)
	d.R, d.C = 4, 1
	if resultKey(a) == resultKey(d) {
		t.Error("grid shape did not change the key")
	}
	e := testCfg(32)
	if resultKey(a) == resultKey(e) {
		t.Error("geometry did not change the key")
	}
}

// resultKey must refuse to hash a config it cannot canonically encode: a
// silent fallback would fork the keyspace across fleet members.
func TestCacheKeyPanicsOnNonFiniteGeometry(t *testing.T) {
	cfg := testCfg(16)
	cfg.Geometry.SAD = math.NaN()
	defer func() {
		if recover() == nil {
			t.Fatal("resultKey accepted a non-encodable config")
		}
	}()
	resultKey(cfg)
}

// A Spec's quality is validated once, case-sensitively, and "" means full
// (a Spec from before the field is a full-quality Spec).
func TestParseQuality(t *testing.T) {
	for _, c := range []struct {
		in, want string // want "" for an invalid quality
	}{
		{"", api.QualityFull},
		{"full", api.QualityFull},
		{"preview", api.QualityPreview},
		{"progressive", api.QualityProgressive},
		{"4k", ""},
		{"Full", ""},
	} {
		r, err := resolveSpec(Spec{Quality: c.in})
		if c.want == "" {
			if err == nil || !strings.Contains(err.Error(), "unknown quality") {
				t.Errorf("quality %q: err %v, want unknown quality", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("quality %q: %v", c.in, err)
		}
		if r.spec.Quality != c.want {
			t.Errorf("quality %q resolved to %q, want %q", c.in, r.spec.Quality, c.want)
		}
	}
}

// The quality tier never moves the full key. A tier that builds a preview
// has a preview key; a preview-quality job's result is its preview, any
// other job's is the full volume.
func TestQualitySemantics(t *testing.T) {
	full, err := resolveSpec(Spec{Quality: "full"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q                string
		preview, isFinal bool // isFinal: the result key is the full key
	}{
		{api.QualityFull, false, true},
		{api.QualityPreview, true, false},
		{api.QualityProgressive, true, true},
	} {
		r, err := resolveSpec(Spec{Quality: c.q})
		if err != nil {
			t.Fatalf("quality %q: %v", c.q, err)
		}
		if r.fullKey != full.fullKey {
			t.Errorf("quality %q: full key %s, want %s", c.q, r.fullKey, full.fullKey)
		}
		if (r.prevKey != "") != c.preview {
			t.Errorf("quality %q: preview key %q, want one: %v", c.q, r.prevKey, c.preview)
		}
		wantKey := r.prevKey
		if c.isFinal {
			wantKey = r.fullKey
		}
		if r.cacheKey != wantKey {
			t.Errorf("quality %q: cache key %s, want %s", c.q, r.cacheKey, wantKey)
		}
	}
}

// previewKey's suffixed form must be structurally unable to collide with a
// full-resolution key (64-char SHA-256 hex) and must stay a pure function
// of its inputs — journal replay re-derives it bit-identically.
func TestPreviewKeyShape(t *testing.T) {
	full := strings.Repeat("ab", 32)
	k := previewKey(full, 4)
	if k != full+".p4" {
		t.Fatalf("previewKey = %q", k)
	}
	if len(k) == len(full) {
		t.Fatal("preview key has full-key length: could alias a full entry")
	}
	if previewKey(full, 2) == k {
		t.Fatal("factor does not separate preview keys")
	}
	r, err := resolveSpec(Spec{Quality: api.QualityPreview})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.fullKey) != len(full) || r.prevKey != previewKey(r.fullKey, r.plan.Factor) {
		t.Fatalf("resolved keys full %q, preview %q", r.fullKey, r.prevKey)
	}
}

// Both directions of the key on small jobs: each field the key names (the
// grid, the window, a geometry count, the phantom) moves both the key and
// the volume's bits, and each field of core.Config that only delivers the
// volume (the output prefix, the assembly at rank 0, the two hooks) moves
// neither. The volume is taken as the service takes it, from the slice
// hook; an assembled volume must carry the same bits.
func TestKeyNamesWhatTheVolumeIs(t *testing.T) {
	base := Spec{Phantom: "shepplogan", NX: 16, NU: 32, NP: 32, R: 1, C: 1}
	rows := []struct {
		name  string
		spec  func(*Spec)
		cfg   func(*core.Config)
		moves bool
	}{
		{name: "base"},
		{name: "grid 2x1", spec: func(s *Spec) { s.R = 2 }, moves: true},
		{name: "grid 1x2", spec: func(s *Spec) { s.C = 2 }, moves: true},
		{name: "grid 2x2", spec: func(s *Spec) { s.R, s.C = 2, 2 }, moves: true},
		{name: "grid 4x1", spec: func(s *Spec) { s.R = 4 }, moves: true},
		{name: "window hann", spec: func(s *Spec) { s.Window = "hann" }, moves: true},
		{name: "np 48", spec: func(s *Spec) { s.NP = 48 }, moves: true},
		{name: "phantom sphere", spec: func(s *Spec) { s.Phantom = "sphere" }, moves: true},
		{name: "output prefix", cfg: func(c *core.Config) { c.OutputPrefix = "out" }},
		{name: "assemble volume", cfg: func(c *core.Config) { c.AssembleVolume = true }},
		{name: "progress", cfg: func(c *core.Config) { c.Progress = func(int, int) {} }},
		{name: "slice written", cfg: func(c *core.Config) {
			c.SliceWritten = func(int, *volume.Image, int, int) {}
		}},
	}
	store := pfs.New(pfs.Config{})
	staged := map[string]bool{}
	keys, fnvs := map[string]string{}, map[uint64]string{}
	var baseKey string
	var baseFNV uint64
	for _, row := range rows {
		spec := base
		if row.spec != nil {
			row.spec(&spec)
		}
		rs, err := resolveSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		cfg := rs.cfg
		if row.cfg != nil {
			row.cfg(&cfg)
		}
		if p := cfg.InputPrefix; !staged[p] {
			for s, img := range projector.AnalyticAll(rs.ph, cfg.Geometry, 0) {
				if _, err := store.WriteProjection(p, s, img); err != nil {
					t.Fatal(err)
				}
			}
			staged[p] = true
		}
		key, sum := resultKey(cfg), reconstructFNV(t, cfg, store)
		if key != rs.fullKey && row.cfg == nil {
			t.Fatalf("%s: resultKey %s, resolved full key %s", row.name, key, rs.fullKey)
		}
		if row.name == "base" {
			baseKey, baseFNV = key, sum
		}
		if moved := key != baseKey; moved != row.moves {
			t.Errorf("%s: key moved %v, want %v", row.name, moved, row.moves)
		}
		if moved := sum != baseFNV; moved != row.moves {
			t.Errorf("%s: volume FNV %016x moved %v (base %016x), want %v", row.name, sum, moved, baseFNV, row.moves)
		}
		if row.moves {
			if other, dup := keys[key]; dup {
				t.Errorf("%s and %s share key %s", row.name, other, key)
			}
			if other, dup := fnvs[sum]; dup {
				t.Errorf("%s and %s share volume FNV %016x", row.name, other, sum)
			}
			keys[key], fnvs[sum] = row.name, row.name
		}
	}
}

// reconstructFNV runs cfg on store and returns FNV-64a over the volume's
// float32 bits, filled from the slice hook (chaining cfg's own). An
// assembled volume must carry the same bits.
func reconstructFNV(t *testing.T, cfg core.Config, store *pfs.PFS) uint64 {
	t.Helper()
	g := cfg.Geometry
	out := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	hook := cfg.SliceWritten
	cfg.SliceWritten = func(z int, slice *volume.Image, written, total int) {
		copy(planeZ(out, z).Data, slice.Data)
		if hook != nil {
			hook(z, slice, written, total)
		}
	}
	res, err := core.Run(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	sum := volumeFNV(out)
	if res.Volume != nil && volumeFNV(res.Volume) != sum {
		t.Fatalf("assembled volume FNV %016x, slice hook's %016x", volumeFNV(res.Volume), sum)
	}
	return sum
}

func volumeFNV(v *volume.Volume) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}
