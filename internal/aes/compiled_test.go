package aes

import (
	"bytes"
	"testing"

	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// sameCompiled fails t unless got holds exactly want's packed words and
// escape records.
func sameCompiled(t *testing.T, what string, got, want *trace.Compiled) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d accesses, want %d", what, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Word(i) != want.Word(i) || got.At(i) != want.At(i) {
			t.Fatalf("%s: access %d = %#x %+v, want %#x %+v",
				what, i, got.Word(i), got.At(i), want.Word(i), want.At(i))
		}
	}
}

// traceOptsCases covers the default mix, a sparse and a dense stack mix,
// the largest packable NonMem, and NonMem counts that force every access
// into an escape record.
var traceOptsCases = []TraceOpts{
	{},
	{StackPerLookup: 1, NonMem: 7},
	{StackPerLookup: 5, NonMem: 4094},
	{NonMem: 4095},
	{StackPerLookup: 2, NonMem: 1 << 20},
}

// straddleLayout places the encryption tables across the packed form's
// line-number limit (2^49 lines): the low half of each table packs, the
// high half escapes, so a lookup's encoding depends on its index.
func straddleLayout() Layout {
	l := DefaultLayout()
	for i := range l.Tables {
		l.Tables[i] = mem.Addr(1)<<55 - TableSize/2 + mem.Addr(i)*2*TableSize
	}
	return l
}

// farLayout places every region beyond the packed line space, so every
// access of a block is an escape record.
func farLayout() Layout {
	l := DefaultLayout()
	far := mem.Addr(1) << 60
	for i := range l.Tables {
		l.Tables[i] += far
	}
	l.RoundKeys += far
	l.Stack += far
	l.Input += far
	l.Output += far
	return l
}

// TestCompiledFormsMatchCompile is the tracer's equivalence property: every
// packed form equals trace.Compile of its mem.Trace form, word for word and
// escapes included, across key lengths, instruction mixes and buffer
// offsets. The decryption trace appends to the encryption trace, as
// Figure 8's enc+dec workload builds it.
func TestCompiledFormsMatchCompile(t *testing.T) {
	src := rng.New(0x7ace)
	for _, keyLen := range []int{16, 24, 32} {
		for _, opts := range traceOptsCases {
			key := make([]byte, keyLen)
			src.Bytes(key)
			c, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			ref := &Tracer{Cipher: c, Layout: DefaultLayout(), Opts: opts}
			got := &Tracer{Cipher: c, Layout: DefaultLayout(), Opts: opts}

			iv := make([]byte, BlockSize)
			pt := make([]byte, BlockSize*(1+src.Intn(6)))
			src.Bytes(iv)
			src.Bytes(pt)
			enc, encTr, err := ref.EncryptCBC(pt, iv)
			if err != nil {
				t.Fatal(err)
			}
			var ct trace.Compiled
			gotEnc, err := got.EncryptCBCCompiled(&ct, pt, iv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotEnc, enc) {
				t.Fatalf("key %d opts %+v: CBC ciphertexts differ", keyLen, opts)
			}
			sameCompiled(t, "EncryptCBCCompiled", &ct, trace.Compile(encTr))

			dec, decTr, err := ref.DecryptCBC(enc, iv)
			if err != nil {
				t.Fatal(err)
			}
			gotDec, err := got.DecryptCBCCompiled(&ct, enc, iv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotDec, dec) || !bytes.Equal(dec, pt) {
				t.Fatalf("key %d opts %+v: CBC plaintexts differ", keyLen, opts)
			}
			sameCompiled(t, "EncryptCBCCompiled+DecryptCBCCompiled", &ct,
				trace.Compile(append(encTr, decTr...)))

			var blk trace.Compiled
			for k := 0; k < 4; k++ {
				off := BlockSize * src.Intn(8)
				block := make([]byte, BlockSize)
				src.Bytes(block)
				wantOut, want := ref.EncryptBlock(block, off)
				if out := got.EncryptBlockCompiled(&blk, block, off); out != wantOut {
					t.Fatalf("key %d opts %+v: block ciphertexts differ", keyLen, opts)
				}
				sameCompiled(t, "EncryptBlockCompiled", &blk, trace.Compile(want))
			}
		}
	}
}

// TestBlockCompiledTracksTracerChanges drives one tracer through a random
// walk of re-keys (same and different key lengths, so the round count
// changes), option changes, layout changes and offset changes, reusing one
// packed trace. After every step its block trace must equal trace.Compile
// of a fresh tracer's recording. The straddling and far layouts mix packed
// and escape lookups and make every access an escape.
func TestBlockCompiledTracksTracerChanges(t *testing.T) {
	src := rng.New(0x5e1)
	layouts := []Layout{DefaultLayout(), farLayout(), straddleLayout()}
	c, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	var ct trace.Compiled
	for step := 0; step < 300; step++ {
		switch src.Intn(6) {
		case 0:
			key := make([]byte, []int{16, 24, 32}[src.Intn(3)])
			src.Bytes(key)
			if err := tr.Cipher.SetKey(key); err != nil {
				t.Fatal(err)
			}
		case 1:
			tr.Opts = traceOptsCases[src.Intn(len(traceOptsCases))]
		case 2:
			tr.Layout = layouts[src.Intn(len(layouts))]
		}
		off := BlockSize * src.Intn(3)
		block := make([]byte, BlockSize)
		src.Bytes(block)
		fresh := &Tracer{Cipher: tr.Cipher, Layout: tr.Layout, Opts: tr.Opts}
		wantOut, want := fresh.EncryptBlock(block, off)
		if out := tr.EncryptBlockCompiled(&ct, block, off); out != wantOut {
			t.Fatalf("step %d: ciphertexts differ", step)
		}
		sameCompiled(t, "EncryptBlockCompiled", &ct, trace.Compile(want))
	}
}

// TestEncryptBlockCompiledEscapes drives one tracer over many plaintexts
// per layout and instruction mix, so all but the first block are built by
// patching the recorded template. Lookups that escape (far tables, giant
// NonMem counts) and lookups whose encoding depends on the index (tables
// straddling the packed line space) must still come out word for word as
// trace.Compile of the mem.Trace form, escape records included.
func TestEncryptBlockCompiledEscapes(t *testing.T) {
	src := rng.New(0xe5c)
	key := make([]byte, 16)
	src.Bytes(key)
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	for li, lay := range []Layout{DefaultLayout(), farLayout(), straddleLayout()} {
		for _, opts := range []TraceOpts{{}, {NonMem: 4095}, {StackPerLookup: 2, NonMem: 1 << 20}} {
			tr := &Tracer{Cipher: c, Layout: lay, Opts: opts}
			ref := &Tracer{Cipher: c, Layout: lay, Opts: opts}
			var ct trace.Compiled
			escapes := 0
			for k := 0; k < 200; k++ {
				block := make([]byte, BlockSize)
				src.Bytes(block)
				wantOut, want := ref.EncryptBlock(block, BlockSize*(k%2))
				if out := tr.EncryptBlockCompiled(&ct, block, BlockSize*(k%2)); out != wantOut {
					t.Fatalf("layout %d opts %+v block %d: ciphertexts differ", li, opts, k)
				}
				sameCompiled(t, "EncryptBlockCompiled", &ct, trace.Compile(want))
				for i := 0; i < ct.Len(); i++ {
					if trace.IsEscape(ct.Word(i)) {
						escapes++
					}
				}
			}
			if (li > 0 || opts.NonMem > 4094) && escapes == 0 {
				t.Errorf("layout %d opts %+v: no escape records; the case does not test escapes", li, opts)
			}
		}
	}
}

// TestEncryptBlockCompiledPatchesTemplate pins the steady-state path: once
// a shape has been recorded, a later block of the same shape is built by
// patching the template, not recorded afresh. A marker planted in a
// non-lookup word of the template must show up in the next block's trace.
func TestEncryptBlockCompiledPatchesTemplate(t *testing.T) {
	c, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	var ct trace.Compiled
	block := make([]byte, BlockSize)
	tr.EncryptBlockCompiled(&ct, block, 0)
	_, marked := tr.EncryptBlock(block, 0)
	if marked[0].Secret {
		t.Fatal("the first access is a table lookup; plant the marker elsewhere")
	}
	marked[0].NonMem += 1000
	tr.tmpl.words.CopyFrom(trace.Compile(marked))

	block[0] = 1
	tr.EncryptBlockCompiled(&ct, block, 0)
	_, want := tr.EncryptBlock(block, 0)
	want[0].NonMem += 1000
	sameCompiled(t, "block after a planted template", &ct, trace.Compile(want))
}

// TestEncryptBlockCompiledAllocFree pins the steady-state block tracer at
// zero allocations: the recorder and the caller's trace are reused.
func TestEncryptBlockCompiledAllocFree(t *testing.T) {
	c, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	var ct trace.Compiled
	block := make([]byte, BlockSize)
	tr.EncryptBlockCompiled(&ct, block, 0)
	if got := testing.AllocsPerRun(50, func() {
		block[0]++
		tr.EncryptBlockCompiled(&ct, block, 0)
	}); got != 0 {
		t.Errorf("EncryptBlockCompiled: %v allocs/op, want 0", got)
	}
}

// TestTracerCBCRejectsBadLengths checks that every traced CBC form rejects
// a partial block or a short IV before recording anything.
func TestTracerCBCRejectsBadLengths(t *testing.T) {
	c, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	var ct trace.Compiled
	for _, bad := range [][2]int{{15, BlockSize}, {BlockSize, 8}} {
		src, iv := make([]byte, bad[0]), make([]byte, bad[1])
		if _, _, err := tr.EncryptCBC(src, iv); err == nil {
			t.Errorf("EncryptCBC(%d-byte input, %d-byte iv) succeeded", bad[0], bad[1])
		}
		if _, _, err := tr.DecryptCBC(src, iv); err == nil {
			t.Errorf("DecryptCBC(%d-byte input, %d-byte iv) succeeded", bad[0], bad[1])
		}
		if _, err := tr.EncryptCBCCompiled(&ct, src, iv); err == nil {
			t.Errorf("EncryptCBCCompiled(%d-byte input, %d-byte iv) succeeded", bad[0], bad[1])
		}
		if _, err := tr.DecryptCBCCompiled(&ct, src, iv); err == nil {
			t.Errorf("DecryptCBCCompiled(%d-byte input, %d-byte iv) succeeded", bad[0], bad[1])
		}
	}
	if ct.Len() != 0 {
		t.Errorf("rejected calls recorded %d accesses", ct.Len())
	}
}
