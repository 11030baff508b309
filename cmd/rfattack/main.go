// Command rfattack mounts cache side channel attacks against the simulated
// cache architectures, demonstrating both the vulnerability of demand fetch
// and the random fill defense.
//
// Examples:
//
//	rfattack -attack collision -samples 250000          # break demand fetch
//	rfattack -attack collision -window 16,15            # attack the defense
//	rfattack -attack flushreload -window 16,15
//	rfattack -attack primeprobe -l1kind newcache
//	rfattack -attack evicttime
//
// Exit codes: 0 success; 1 error; 2 usage error (unknown -attack or
// -l1kind, malformed -window, -batch ≤ 0); 3 interrupted by SIGINT/SIGTERM — the
// collision attacks stop at the next batch boundary and report the partial
// result first; the other attacks exit without results. A second signal
// exits immediately (130).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/modexp"
	"randfill/internal/newcache"
	"randfill/internal/profiling"
	"randfill/internal/rng"
	"randfill/internal/sim"
)

func main() {
	attack := flag.String("attack", "collision", "collision, collision-first, flushreload, primeprobe, evicttime, modexp")
	window := flag.String("window", "0,0", "victim's random fill window as 'a,b'")
	l1kind := flag.String("l1kind", "sa", "L1 architecture: sa, newcache")
	samples := flag.Int("samples", 100000, "measurement budget")
	batch := flag.Int("batch", 4000, "collision attack success-check interval")
	seed := flag.Uint64("seed", 42, "random seed")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stop()

	w, err := parseWindow(*window)
	if err != nil {
		usage(err)
	}
	switch *attack {
	case "collision", "collision-first", "flushreload", "primeprobe", "evicttime", "modexp":
	default:
		usage(fmt.Errorf("unknown attack %q", *attack))
	}
	if *l1kind != "sa" && *l1kind != "newcache" {
		usage(fmt.Errorf("unknown l1kind %q (want sa or newcache)", *l1kind))
	}
	if *batch <= 0 {
		usage(fmt.Errorf("-batch %d: want > 0", *batch))
	}

	// The collision search checks its ctx at every batch boundary, so the
	// first signal lets it stop and report the partial result; the other
	// attacks run in one piece, so for them the first signal exits at once.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	cooperative := *attack == "collision" || *attack == "collision-first"
	go func() {
		s := <-sigc
		if !cooperative {
			fmt.Fprintf(os.Stderr, "rfattack: received %v; this attack is not interruptible mid-run, exiting without results\n", s)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "rfattack: received %v; stopping at the next batch boundary to report partial results (signal again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "rfattack: second signal, exiting immediately")
		os.Exit(130)
	}()

	switch *attack {
	case "collision", "collision-first":
		runCollision(ctx, *attack, w, sim.CacheKind(*l1kind), *samples, *batch, *seed)
	case "flushreload":
		runFlushReload(w, *l1kind, *samples, *seed)
	case "primeprobe":
		runPrimeProbe(w, *l1kind, *samples, *seed)
	case "evicttime":
		runEvictTime(w, *l1kind, *samples, *seed)
	case "modexp":
		runModexpSpy(w, *l1kind, *seed)
	}
}

func runCollision(ctx context.Context, kind string, w rng.Window, l1 sim.CacheKind, samples, batch int, seed uint64) {
	cfg := attacks.CollisionConfig{Sim: sim.DefaultConfig(), Seed: seed}
	cfg.Sim.MissQueue = 2 // attacker-favoring (see DESIGN.md)
	cfg.Sim.L1Kind = l1
	if kind == "collision-first" {
		cfg.Round = attacks.FirstRound
	}
	if !w.Zero() {
		cfg.Victim = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
	}
	fmt.Printf("cache collision attack (%s round) vs %s, victim window %v\n",
		map[bool]string{true: "first", false: "final"}[kind == "collision-first"], l1, w)
	res, err := attacks.MeasurementsToSuccessCtx(ctx, cfg, batch, samples)
	if res.Success {
		fmt.Printf("SUCCESS: full key XOR relations recovered after %d measurements\n", res.Measurements)
	} else {
		fmt.Printf("no success after %d measurements (best: %d pairs correct)\n",
			res.Measurements, res.CorrectPairs)
	}
	fmt.Printf("sigma_T = %.1f cycles\n", res.SigmaT)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfattack: interrupted — the results above are partial (the search did not reach its sample budget)")
		os.Exit(3)
	}
}

func mkCache(l1kind string) func(src *rng.Source) cache.Cache {
	switch l1kind {
	case "sa":
		return func(src *rng.Source) cache.Cache {
			return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
		}
	default: // "newcache"; main validated -l1kind
		return func(src *rng.Source) cache.Cache { return newcache.New(32*1024, 4, src) }
	}
}

func table() mem.Region { return mem.Region{Base: 0x11000, Size: 1024} }

func runFlushReload(w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.FlushReload(attacks.FlushReloadConfig{
		NewCache: mkCache(l1kind),
		Window:   w,
		Region:   table(),
		Trials:   trials,
		Seed:     seed,
	})
	fmt.Printf("flush-reload vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Printf("victim line observed: %.1f%% of trials\n", 100*res.Accuracy)
	fmt.Printf("empirical channel: %.3f bits per access (demand fetch carries 4 bits)\n", res.MutualInfo)
}

func runPrimeProbe(w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.PrimeProbe(attacks.PrimeProbeConfig{
		NewCache:     mkCache(l1kind),
		Sets:         128,
		Ways:         4,
		Window:       w,
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       trials,
		Seed:         seed,
	})
	fmt.Printf("prime-probe vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Printf("exact set inferred:    %.1f%%\n", 100*res.ExactAccuracy)
	fmt.Printf("within window of set:  %.1f%%\n", 100*res.WindowAccuracy)
}

func runEvictTime(w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.EvictTime(attacks.EvictTimeConfig{
		NewCache:     mkCache(l1kind),
		Sets:         128,
		Ways:         4,
		TargetSet:    int(table().FirstLine()) & 127,
		Window:       w,
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       trials,
		Seed:         seed,
	})
	fmt.Printf("evict-time vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Printf("mean time, victim used evicted set: %.2f\n", res.MeanTimeTarget)
	fmt.Printf("mean time, otherwise:               %.2f\n", res.MeanTimeOther)
	fmt.Printf("signal: %.2f\n", res.Signal)
}

func runModexpSpy(w rng.Window, l1kind string, seed uint64) {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := modexp.New(big.NewInt(7), mod, 4)
	if err != nil {
		fatal(err)
	}
	secret := randBigInt(rng.New(seed).Split(0x5ec7e7), mod)
	res := modexp.Spy(e, secret, modexp.DefaultLayout(), mkCache(l1kind), w, seed)
	fmt.Printf("percival spy vs %s, victim window %v\n", l1kind, w)
	fmt.Printf("secret exponent:    %X\n", secret)
	fmt.Printf("recovered exponent: %X\n", res.Recovered)
	fmt.Printf("windows recovered:  %d/%d\n", res.CorrectWindows, res.Windows)
	if res.Recovered.Cmp(secret) == 0 {
		fmt.Println("FULL SECRET EXPONENT RECOVERED")
	}
}

// randBigInt returns a uniform value in [0, max) drawn from the seeded
// source through its io.Reader face, by rejection sampling on max.BitLen()
// bits. This keeps the attack CLI bit-reproducible from -seed, where the
// old math/rand adapter tied the secret to a second, unseeded-looking
// stream.
func randBigInt(src *rng.Source, max *big.Int) *big.Int {
	bits := max.BitLen()
	if bits == 0 {
		return new(big.Int)
	}
	buf := make([]byte, (bits+7)/8)
	mask := byte(0xff >> (8*len(buf) - bits))
	for {
		if _, err := io.ReadFull(src, buf); err != nil {
			fatal(err) // unreachable: Source.Read never fails
		}
		buf[0] &= mask
		if v := new(big.Int).SetBytes(buf); v.Cmp(max) < 0 {
			return v
		}
	}
}

func parseWindow(s string) (rng.Window, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return rng.Window{}, fmt.Errorf("window %q: want 'a,b'", s)
	}
	a, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	b, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return rng.Window{}, fmt.Errorf("window %q: bad integers", s)
	}
	if a < 0 {
		a = -a
	}
	return rng.Window{A: a, B: b}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfattack:", err)
	os.Exit(1)
}

// usage reports a flag error on one line and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "rfattack:", err)
	os.Exit(2)
}
