// Command rftrace generates, inspects, and dumps memory access traces.
//
// Examples:
//
//	rftrace gen -workload libquantum -n 500000 -o lq.trace
//	rftrace gen -workload aes -bytes 32768 -o aes.trace
//	rftrace info lq.trace
//	rftrace dump -n 20 lq.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"randfill/internal/aes"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/traceio"
	"randfill/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rftrace gen  -workload NAME [-n N] [-bytes B] [-seed S] -o FILE
  rftrace info FILE
  rftrace dump [-n N] FILE`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	workload := fs.String("workload", "aes", "aes, aesdec, or a benchmark name")
	n := fs.Int("n", 500000, "benchmark trace length")
	bytes := fs.Int("bytes", 32*1024, "AES CBC input size")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "rftrace: gen: -o is required")
		usage()
	}

	trace, err := buildTrace(*workload, *n, *bytes, *seed)
	if err != nil {
		fatal(err)
	}
	// Atomic write: a failure anywhere (including the final flush on a full
	// disk) leaves any existing file untouched and never a truncated trace.
	size, err := traceio.WriteFile(*out, trace)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d accesses (%d bytes, %.2f bytes/access) to %s\n",
		len(trace), size, float64(size)/float64(len(trace)), *out)
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	trace := load(fs)
	fmt.Println(traceio.Summarize(trace))
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 50, "records to print (0 = all)")
	fs.Parse(args)
	trace := load(fs)
	if err := traceio.DumpText(os.Stdout, trace, *n); err != nil {
		fatal(err)
	}
}

func load(fs *flag.FlagSet) mem.Trace {
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	trace, err := traceio.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	return trace
}

func buildTrace(name string, n, bytes int, seed uint64) (mem.Trace, error) {
	switch name {
	case "aes", "aesdec":
		src := rng.New(seed)
		var key, iv [16]byte
		src.Bytes(key[:])
		src.Bytes(iv[:])
		pt := make([]byte, bytes)
		src.Bytes(pt)
		c, err := aes.New(key[:])
		if err != nil {
			return nil, err
		}
		tr := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
		if name == "aes" {
			_, trace, err := tr.EncryptCBC(pt, iv[:])
			return trace, err
		}
		_, trace, err := tr.DecryptCBC(pt, iv[:])
		return trace, err
	default:
		g, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return g.Gen(n, seed), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rftrace:", err)
	os.Exit(1)
}
