package trace

import (
	"testing"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

// randTrace generates a trace that exercises every packed field plus both
// escape conditions (giant line numbers, giant NonMem counts).
func randTrace(src *rng.Source, n int) mem.Trace {
	t := make(mem.Trace, n)
	for i := range t {
		a := mem.Access{
			Addr:      mem.Addr(src.Uint64() >> (8 + src.Intn(30))),
			NonMem:    uint32(src.Intn(40)),
			Dependent: src.Bool(0.3),
			Secret:    src.Bool(0.2),
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		switch src.Intn(40) {
		case 0:
			a.Addr = mem.Addr(src.Uint64()) // likely beyond the 49-bit line space
		case 1:
			a.NonMem = uint32(src.Uint64() >> 34) // likely beyond 12 bits
		}
		t[i] = a
	}
	return t
}

// checkCompiled verifies a compiled trace against its source: the scalar
// decode of every access (set index, tag, write flag, instruction count,
// dependence and secret flags) must match what the compiled stream and the
// per-geometry view report, for every tested set count.
func checkCompiled(t *testing.T, tr mem.Trace, ct *Compiled, setCounts []int) {
	t.Helper()
	if ct.Len() != len(tr) {
		t.Fatalf("Len = %d, want %d", ct.Len(), len(tr))
	}
	for i, a := range tr {
		got := ct.At(i)
		if got.Line() != a.Line() || got.Kind != a.Kind || got.Instructions() != a.Instructions() ||
			got.Dependent != a.Dependent || got.Secret != a.Secret {
			t.Fatalf("At(%d) = %+v, want the decode of %+v", i, got, a)
		}
		w := ct.Word(i)
		if IsEscape(w) {
			continue
		}
		if Line(w) != a.Line() || Write(w) != (a.Kind == mem.Write) ||
			Dependent(w) != a.Dependent || Secret(w) != a.Secret ||
			Instructions(w) != a.Instructions() {
			t.Fatalf("word %d decodes to (%v %v %v %v %d), want scalar (%v %v %v %v %d)",
				i, Line(w), Write(w), Dependent(w), Secret(w), Instructions(w),
				a.Line(), a.Kind == mem.Write, a.Dependent, a.Secret, a.Instructions())
		}
	}
	for _, sets := range setCounts {
		view := ct.Geometry(sets)
		for i, a := range tr {
			wantSet := int(uint64(a.Line()) & uint64(sets-1))
			if view[i].Set != wantSet || view[i].Tag != a.Line() || view[i].Write != (a.Kind == mem.Write) {
				t.Fatalf("Geometry(%d)[%d] = %+v, want set=%d tag=%d write=%v",
					sets, i, view[i], wantSet, a.Line(), a.Kind == mem.Write)
			}
		}
	}
}

// TestCompileMatchesScalarDecode is the compiler's property test: for many
// random traces and fuzzed power-of-two geometries, the compiled stream
// decodes to exactly the (set, tag, write) sequence — plus instruction
// counts and scheduling flags — that the scalar path derives per access.
// An Append-built trace must equal it word for word, escapes included.
func TestCompileMatchesScalarDecode(t *testing.T) {
	src := rng.New(0xc0de)
	for round := 0; round < 50; round++ {
		tr := randTrace(src, 1+src.Intn(500))
		sets := []int{1 << src.Intn(12), 1 << src.Intn(12), 64}
		ct := Compile(tr)
		checkCompiled(t, tr, ct, sets)
		sameCompiled(t, appendBuilt(tr), ct)
	}
}

// TestCompileIntoReuses pins the steady-state allocation contract: once the
// backing arrays fit, recompiling same-shaped traces allocates nothing.
func TestCompileIntoReuses(t *testing.T) {
	src := rng.New(7)
	traces := make([]mem.Trace, 8)
	for i := range traces {
		traces[i] = randTrace(src, 300)
	}
	var ct Compiled
	CompileInto(&ct, traces[0])
	words := &ct.words[0]
	n := 0
	allocs := testing.AllocsPerRun(len(traces), func() {
		CompileInto(&ct, traces[n%len(traces)])
		n++
	})
	if allocs > 0 {
		t.Fatalf("CompileInto allocated %.1f times per run, want 0", allocs)
	}
	if &ct.words[0] != words {
		t.Fatal("CompileInto did not reuse the words backing array")
	}
}

// sameCompiled fails t unless got and want hold the same packed words and
// the same escape records.
func sameCompiled(t *testing.T, got, want *Compiled) {
	t.Helper()
	if len(got.words) != len(want.words) || len(got.escapes) != len(want.escapes) {
		t.Fatalf("got %d words / %d escapes, want %d / %d",
			len(got.words), len(got.escapes), len(want.words), len(want.escapes))
	}
	for i := range want.words {
		if got.words[i] != want.words[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got.words[i], want.words[i])
		}
	}
	for i := range want.escapes {
		if got.escapes[i] != want.escapes[i] {
			t.Fatalf("escape %d = %+v, want %+v", i, got.escapes[i], want.escapes[i])
		}
	}
}

// appendBuilt builds tr's compiled form access by access, on top of a
// Compiled that held other data first, so Reset must clear it.
func appendBuilt(tr mem.Trace) *Compiled {
	ct := Compile(mem.Trace{{Addr: 0x1000}, {Addr: mem.Addr(1) << 62, NonMem: 1 << 20}})
	ct.Reset()
	for _, a := range tr {
		ct.Append(a)
	}
	return ct
}

// TestSetAddrsMatchesCompile: patching addresses into a copied trace gives
// the trace Compile builds from the patched mem.Trace whenever SetAddrs
// accepts the patch; it refuses exactly the patches that touch an escape
// record, before or after.
func TestSetAddrsMatchesCompile(t *testing.T) {
	src := rng.New(0x5e7)
	accepted := 0
	for round := 0; round < 200; round++ {
		tr := randTrace(src, 1+src.Intn(200))
		patched := append(mem.Trace(nil), tr...)
		var pos []int32
		var addrs []mem.Addr
		escapes := false
		for i := range patched {
			if !src.Bool(0.1) {
				continue
			}
			addr := mem.Addr(src.Uint64() >> (8 + src.Intn(30)))
			if src.Intn(10) == 0 {
				addr = mem.Addr(src.Uint64()) // likely beyond the packed line space
			}
			pos, addrs = append(pos, int32(i)), append(addrs, addr)
			a := &patched[i]
			_, before := pack(a)
			a.Addr = addr
			_, after := pack(a)
			escapes = escapes || !before || !after
		}
		var ct Compiled
		ct.CopyFrom(Compile(tr))
		sameCompiled(t, &ct, Compile(tr))
		ok := ct.SetAddrs(pos, addrs)
		if ok == escapes {
			t.Fatalf("round %d: SetAddrs = %v, want %v", round, ok, !escapes)
		}
		if ok {
			accepted++
			sameCompiled(t, &ct, Compile(patched))
		}
	}
	if accepted == 0 || accepted == 200 {
		t.Fatalf("%d of 200 patches accepted; the rounds must exercise both outcomes", accepted)
	}
}

func TestGeometryRejectsBadSetCounts(t *testing.T) {
	ct := Compile(mem.Trace{{Addr: 0x40}})
	for _, sets := range []int{0, -1, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Geometry(%d) did not panic", sets)
				}
			}()
			ct.Geometry(sets)
		}()
	}
}

// decodeFuzzTrace turns an arbitrary byte string into a trace, giving the
// fuzzer full control over every field including the escape conditions.
func decodeFuzzTrace(data []byte) mem.Trace {
	var tr mem.Trace
	for len(data) >= 14 {
		addr := mem.Addr(data[0]) | mem.Addr(data[1])<<8 | mem.Addr(data[2])<<16 |
			mem.Addr(data[3])<<24 | mem.Addr(data[4])<<32 | mem.Addr(data[5])<<40 |
			mem.Addr(data[6])<<48 | mem.Addr(data[7])<<56
		nonmem := uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24
		a := mem.Access{
			Addr:      addr,
			NonMem:    nonmem,
			Dependent: data[12]&1 != 0,
			Secret:    data[12]&2 != 0,
		}
		if data[13]&1 != 0 {
			a.Kind = mem.Write
		}
		tr = append(tr, a)
		data = data[14:]
	}
	return tr
}

// encodeFuzzTrace is the inverse of decodeFuzzTrace.
func encodeFuzzTrace(tr mem.Trace) []byte {
	var data []byte
	for _, a := range tr {
		for b := 0; b < 8; b++ {
			data = append(data, byte(uint64(a.Addr)>>(8*b)))
		}
		for b := 0; b < 4; b++ {
			data = append(data, byte(a.NonMem>>(8*b)))
		}
		var flags, kind byte
		if a.Dependent {
			flags |= 1
		}
		if a.Secret {
			flags |= 2
		}
		if a.Kind == mem.Write {
			kind = 1
		}
		data = append(data, flags, kind)
	}
	return data
}

// FuzzTraceCompile fuzzes the compiler against the scalar decode: whatever
// the input trace, the compiled stream must decode to the same
// (set, tag, write) sequence at several geometries and At must round-trip
// every replay-visible field, and building the trace with Reset and Append
// must give Compile's words and escapes exactly. Seed corpus entries cover
// the packed fast path, both escape conditions, the all-flags case, and
// mixed traces of the kind trace producers Append.
func FuzzTraceCompile(f *testing.F) {
	f.Add([]byte{})
	// One plain packed access.
	f.Add([]byte{0x40, 0x11, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 1})
	// Line-overflow escape (address with all top bits set).
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0})
	// NonMem-overflow escape.
	f.Add([]byte{0x00, 0x20, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 3, 1})
	src := rng.New(0xf022)
	for i := 0; i < 4; i++ {
		f.Add(encodeFuzzTrace(randTrace(src, 4+4*i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeFuzzTrace(data)
		ct := Compile(tr)
		checkCompiled(t, tr, ct, []int{1, 8, 1024})
		sameCompiled(t, appendBuilt(tr), ct)
	})
}
