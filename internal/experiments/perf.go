package experiments

import (
	"context"
	"fmt"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/parexp"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
)

// aesCBCTrace traces the Figure 6/7 workload: AES-CBC encryption of
// sc.CBCBytes of random input (the paper uses 32 KB). Every experiment that
// replays it traces it once and shares the read-only result.
func aesCBCTrace(sc Scale) *trace.Compiled {
	ct := new(trace.Compiled)
	tracer, pt, iv := aesWorkload(sc.Seed^0xcbc, sc.CBCBytes)
	if _, err := tracer.EncryptCBCCompiled(ct, pt, iv); err != nil {
		panic(err)
	}
	return ct
}

// aesEncDecTrace traces the Figure 8 crypto workload: continuous AES
// encryption and decryption (touching all ten tables), as one trace.
func aesEncDecTrace(sc Scale) *trace.Compiled {
	ct := new(trace.Compiled)
	tracer, pt, iv := aesWorkload(sc.Seed^0xdec, sc.CBCBytes)
	enc, err := tracer.EncryptCBCCompiled(ct, pt, iv)
	if err != nil {
		panic(err)
	}
	if _, err := tracer.DecryptCBCCompiled(ct, enc, iv); err != nil {
		panic(err)
	}
	return ct
}

// aesWorkload draws a key, an IV and n bytes of plaintext from seed and
// returns a tracer under the default layout keyed with them.
func aesWorkload(seed uint64, n int) (*aes.Tracer, []byte, []byte) {
	src := rng.New(seed)
	key, iv := make([]byte, 16), make([]byte, 16)
	src.Bytes(key)
	src.Bytes(iv)
	pt := make([]byte, n)
	src.Bytes(pt)
	cipher, err := aes.New(key)
	if err != nil {
		panic(err)
	}
	return &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}, pt, iv
}

// runAES replays the compiled AES trace on one machine/thread
// configuration and returns the thread result.
func runAES(cfg sim.Config, tc sim.ThreadConfig, ct *trace.Compiled) sim.Result {
	return sim.New(cfg).NewThread(tc).RunCompiled(ct)
}

// encTables returns the five encryption-table regions (the Figure 6
// security-critical data).
func encTables() []mem.Region { return aes.DefaultLayout().EncTableRegions() }

// allTables returns all ten table regions (the Figure 8 security-critical
// data: encryption + decryption).
func allTables() []mem.Region { return aes.DefaultLayout().AllTableRegions() }

// figure6Geometries are the cache shapes of Figure 6.
func figure6Geometries() []cache.Geometry {
	var out []cache.Geometry
	for _, kb := range []int{8, 16, 32} {
		for _, ways := range []int{1, 2, 4} {
			out = append(out, cache.Geometry{SizeBytes: kb * 1024, Ways: ways})
		}
	}
	return out
}

// Figure6 reproduces the cryptographic-workload IPC comparison: for each L1
// geometry, the IPC of PLcache+preload, disable-cache and random fill
// [-16,+15], normalized to the demand-fetch baseline of the same geometry.
func Figure6(ctx context.Context, sc Scale) (*Table, error) {
	ct := aesCBCTrace(sc)
	t := &Table{
		Title:   "Figure 6: normalized IPC of AES-CBC under each defense",
		Headers: []string{"L1 geometry", "baseline", "PLcache+preload", "disable cache", "random fill"},
	}
	geoms := figure6Geometries()
	// Each geometry's four runs are one self-contained work item.
	rows, err := parexp.Map(sc.engine(), ctx, len(geoms), func(_ context.Context, i int) ([4]float64, error) {
		g := geoms[i]
		base := func(kind sim.CacheKind) sim.Config {
			cfg := sim.DefaultConfig()
			cfg.L1 = g
			cfg.L1Kind = kind
			cfg.Seed = sc.Seed
			return cfg
		}
		baseline := runAES(base(sim.KindSA), sim.ThreadConfig{}, ct)
		preload := runAES(base(sim.KindPLcache), sim.ThreadConfig{
			Mode: sim.ModePreload, SecretRegions: encTables(), Owner: 1,
		}, ct)
		disable := runAES(base(sim.KindSA), sim.ThreadConfig{Mode: sim.ModeDisableSecret}, ct)
		rf := runAES(base(sim.KindSA), sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15},
		}, ct)
		return [4]float64{baseline.IPC(), preload.IPC(), disable.IPC(), rf.IPC()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(geoms[i].String(), "100.0%",
			pct(r[1]/r[0]), pct(r[2]/r[0]), pct(r[3]/r[0]))
	}
	t.AddNote("paper: disable cache ≈ 55%% for all shapes; PLcache+preload 85%% at 8KB DM rising with size/ways; random fill ≥ 96.5%% at 8KB, ≈ 100%% at 32KB")
	return t, nil
}

// Figure7 reproduces the window-size sensitivity of the AES workload: IPC
// normalized to the same cache with demand fetch, for the SA cache (8 KB DM
// and 32 KB 4-way) and Newcache (8 KB and 32 KB).
func Figure7(ctx context.Context, sc Scale) (*Table, error) {
	ct := aesCBCTrace(sc)
	t := &Table{
		Title:   "Figure 7: normalized IPC of AES vs random fill window size",
		Headers: []string{"window", "8KB DM SA", "32KB 4-way SA", "8KB Newcache", "32KB Newcache"},
	}
	configs := []struct {
		kind sim.CacheKind
		geom cache.Geometry
	}{
		{sim.KindSA, cache.Geometry{SizeBytes: 8 * 1024, Ways: 1}},
		{sim.KindSA, cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}},
		{sim.KindNewcache, cache.Geometry{SizeBytes: 8 * 1024, Ways: 1}},
		{sim.KindNewcache, cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}},
	}
	eng := sc.engine()
	baselines, err := parexp.Map(eng, ctx, len(configs), func(_ context.Context, i int) (float64, error) {
		cfg := sim.DefaultConfig()
		cfg.L1 = configs[i].geom
		cfg.L1Kind = configs[i].kind
		cfg.Seed = sc.Seed
		return runAES(cfg, sim.ThreadConfig{}, ct).IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	sizes := []int{1, 2, 4, 8, 16, 32}
	// One work item per (size, config) cell, index-ordered back into rows.
	cells, err := parexp.Map(eng, ctx, len(sizes)*len(configs), func(_ context.Context, k int) (float64, error) {
		size, c := sizes[k/len(configs)], configs[k%len(configs)]
		cfg := sim.DefaultConfig()
		cfg.L1 = c.geom
		cfg.L1Kind = c.kind
		cfg.Seed = sc.Seed
		tc := sim.ThreadConfig{}
		if size > 1 {
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(size)}
		}
		return runAES(cfg, tc, ct).IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	for si, size := range sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for i := range configs {
			row = append(row, pct(cells[si*len(configs)+i]/baselines[i]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: SA insensitive to window size; Newcache degrades with window (max -9%% at size 32 on 8KB)")
	return t, nil
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
