package aes

import (
	"randfill/internal/mem"
	"randfill/internal/trace"
)

// Layout places the cipher's data structures in the simulated address
// space. Each lookup table is 1 KB (256 four-byte entries, 16 cache lines);
// the ten tables are contiguous, as they would be in a shared library's
// read-only data segment.
type Layout struct {
	Tables    [NumTables]mem.Addr
	RoundKeys mem.Addr // 176 bytes (11 round keys)
	Stack     mem.Addr // hot stack frame region
	Input     mem.Addr // plaintext buffer
	Output    mem.Addr // ciphertext buffer
}

// TableSize is the byte size of one lookup table.
const TableSize = 1024

// TableLines is the number of cache lines per table (M = 16 in the paper's
// case study: 1 KB table, 64-byte lines).
const TableLines = TableSize / mem.LineSize

// EntriesPerLine is the number of 4-byte table entries per cache line.
const EntriesPerLine = mem.LineSize / 4

// DefaultLayout returns the address-space placement used by all experiments.
// The regions carry distinct line offsets so they do not all alias to the
// same cache sets in small direct-mapped configurations (as a real process
// layout, with tables in .rodata, round keys and buffers on the heap and
// locals on the stack, would not).
func DefaultLayout() Layout {
	var l Layout
	for i := 0; i < NumTables; i++ {
		l.Tables[i] = mem.Addr(0x10000 + i*TableSize)
	}
	l.RoundKeys = 0x20000 + 37*mem.LineSize
	l.Stack = 0x30000 + 101*mem.LineSize
	l.Input = 0x40000 + 211*mem.LineSize
	l.Output = 0x80000 + 331*mem.LineSize
	return l
}

// TableRegion returns the memory region of table t (0..NumTables-1).
func (l Layout) TableRegion(t int) mem.Region {
	return mem.Region{Base: l.Tables[t], Size: TableSize}
}

// EncTableRegions returns the five encryption-table regions (the
// security-critical data to protect for an encryption-only workload).
func (l Layout) EncTableRegions() []mem.Region {
	out := make([]mem.Region, 5)
	for i := 0; i < 5; i++ {
		out[i] = l.TableRegion(TableTe0 + i)
	}
	return out
}

// AllTableRegions returns all ten table regions (encryption + decryption).
func (l Layout) AllTableRegions() []mem.Region {
	out := make([]mem.Region, NumTables)
	for i := range out {
		out[i] = l.TableRegion(i)
	}
	return out
}

// LookupAddr returns the byte address of entry index in table t. It takes
// the Layout by pointer so the tracer's per-lookup call copies nothing.
func (l *Layout) LookupAddr(t int, index byte) mem.Addr {
	return l.Tables[t] + mem.Addr(index)*4
}

// LookupLine returns the cache line of entry index in table t; within a
// table, lines are numbered 0..TableLines-1 by index >> 4.
func (l *Layout) LookupLine(t int, index byte) mem.Line {
	return mem.LineOf(l.LookupAddr(t, index))
}

// TraceOpts tunes the instruction mix of generated traces. The defaults
// reproduce the paper's observation that security-critical accesses are
// about 24% of all data-cache accesses in the AES workload.
type TraceOpts struct {
	// StackPerLookup is the number of hot stack-region accesses emitted
	// around each table lookup (default 3 → 160 lookups / ~662 accesses
	// ≈ 24% security-critical).
	StackPerLookup int
	// NonMem is the number of non-memory instructions preceding each
	// memory access (default 2).
	NonMem uint32
}

func (o TraceOpts) withDefaults() TraceOpts {
	if o.StackPerLookup == 0 {
		o.StackPerLookup = 3
	}
	if o.NonMem == 0 {
		o.NonMem = 2
	}
	return o
}

// stackLines is the number of cache lines in the hot stack region.
const stackLines = 4

// traceRec records a traced cipher execution from the cipher's lookup
// callbacks, interleaving the non-table accesses (round keys, stack
// traffic) a real execution performs. It appends to one of two sinks: the
// packed trace ct when it is non-nil, the mem.Trace trace otherwise. Table
// lookups are the only Secret accesses it emits.
type traceRec struct {
	lay    Layout
	opts   TraceOpts
	trace  mem.Trace
	ct     *trace.Compiled
	stack  int // rotating stack-line cursor
	rkWord int // rotating round-key word cursor
}

// begin resets r to record a fresh trace under t's layout and options,
// appending to ct when it is non-nil and to buf otherwise.
func (r *traceRec) begin(t *Tracer, buf mem.Trace, ct *trace.Compiled) {
	*r = traceRec{lay: t.Layout, opts: t.Opts.withDefaults(), trace: buf, ct: ct}
}

func (r *traceRec) add(a mem.Access) {
	if r.ct != nil {
		r.ct.Append(a)
		return
	}
	r.trace = append(r.trace, a)
}

func (r *traceRec) stackAccess(kind mem.Kind) {
	addr := r.lay.Stack + mem.Addr((r.stack%stackLines)*mem.LineSize) + mem.Addr(r.stack*8%mem.LineSize)
	r.stack++
	r.add(mem.Access{Addr: addr, Kind: kind, NonMem: r.opts.NonMem})
}

func (r *traceRec) roundKeyReads(n int) {
	for i := 0; i < n; i++ {
		addr := r.lay.RoundKeys + mem.Addr((r.rkWord%44)*4)
		r.rkWord++
		r.add(mem.Access{Addr: addr, Kind: mem.Read, NonMem: r.opts.NonMem})
	}
}

// Lookup implements Recorder.
func (r *traceRec) Lookup(table int, index byte, round int, first bool) {
	if first {
		// Round boundary: the four round-key words are read.
		r.roundKeyReads(4)
	}
	for i := 0; i < r.opts.StackPerLookup; i++ {
		kind := mem.Read
		if i == r.opts.StackPerLookup-1 {
			kind = mem.Write
		}
		r.stackAccess(kind)
	}
	r.add(mem.Access{
		Addr:      r.lay.LookupAddr(table, index),
		Kind:      mem.Read,
		NonMem:    r.opts.NonMem,
		Dependent: first,
		Secret:    true,
	})
}

func (r *traceRec) bufferIO(base mem.Addr, off int, kind mem.Kind) {
	for i := 0; i < 4; i++ {
		r.add(mem.Access{Addr: base + mem.Addr(off+i*4), Kind: kind, NonMem: r.opts.NonMem})
	}
}

// Tracer generates memory access traces for cipher executions under a given
// layout. Use it by pointer: the block forms keep persistent recorders (a
// per-call recorder would escape through the Recorder interface) and the
// packed form keeps a block template (see EncryptBlockCompiled). Every
// method has a mem.Trace form and a packed form that writes trace.Compiled
// words directly; the packed form equals trace.Compile of the mem.Trace
// form, word for word.
type Tracer struct {
	Cipher *Cipher
	Layout Layout
	Opts   TraceOpts

	rec   traceRec
	tmpl  blockTemplate
	patch patchRec
}

// blockShape is everything a block trace's shape depends on: which
// accesses it makes and in what order. The plaintext and the cipher key
// only choose the table-lookup addresses.
type blockShape struct {
	off    int
	lay    Layout
	opts   TraceOpts
	rounds int
}

// blockTemplate is the packed trace of the last block traceRec recorded,
// with the positions of its table lookups (its Secret accesses) in the
// order Cipher.Encrypt reports them. The zero template matches no shape.
type blockTemplate struct {
	shape   blockShape
	words   trace.Compiled
	lookups []int32
}

// set makes ct, recorded with the given shape, the template.
func (b *blockTemplate) set(shape blockShape, ct *trace.Compiled) {
	b.shape = shape
	b.words.CopyFrom(ct)
	if n := 16 * shape.rounds; cap(b.lookups) < n {
		b.lookups = make([]int32, 0, n)
	}
	b.lookups = b.lookups[:0]
	for i := 0; i < ct.Len(); i++ {
		if ct.At(i).Secret {
			b.lookups = append(b.lookups, int32(i))
		}
	}
}

// patchRec is the Recorder that collects a block's table-lookup
// addresses, in the order Cipher.Encrypt reports them, for patching into a
// copied block template.
type patchRec struct {
	lay   *Layout
	addrs [16 * 14]mem.Addr // 16 lookups per round, at most 14 rounds
	n     int
}

// Lookup implements Recorder.
func (p *patchRec) Lookup(table int, index byte, _ int, _ bool) {
	p.addrs[p.n] = p.lay.LookupAddr(table, index)
	p.n++
}

// EncryptBlock encrypts one block at buffer offset off and returns the
// ciphertext together with the block's memory access trace. The trace is
// freshly allocated; measurement loops should use EncryptBlockCompiled
// instead.
func (t *Tracer) EncryptBlock(src []byte, off int) ([BlockSize]byte, mem.Trace) {
	return t.EncryptBlockInto(nil, src, off)
}

// EncryptBlockInto is EncryptBlock appending to buf (pass a recycled slice
// truncated to length 0); it returns the grown slice.
func (t *Tracer) EncryptBlockInto(buf mem.Trace, src []byte, off int) ([BlockSize]byte, mem.Trace) {
	return t.recordBlock(buf, nil, src, off)
}

// EncryptBlockCompiled is EncryptBlock writing the block's trace into ct,
// replacing its contents. Steady-state calls with a reused ct allocate
// nothing.
//
// The recorder traces a block once per (offset, layout, options, round
// count); later calls copy that template into ct and patch only the table
// lookups' lines, the one part the plaintext and key change. A block with
// a lookup stored as an escape record, or whose new line would need one,
// is recorded afresh instead.
func (t *Tracer) EncryptBlockCompiled(ct *trace.Compiled, src []byte, off int) [BlockSize]byte {
	shape := blockShape{off: off, lay: t.Layout, opts: t.Opts, rounds: t.Cipher.Rounds()}
	if b := &t.tmpl; b.shape == shape {
		p := &t.patch
		p.lay, p.n = &t.Layout, 0
		var dst [BlockSize]byte
		t.Cipher.Encrypt(dst[:], src, p)
		ct.CopyFrom(&b.words)
		if ct.SetAddrs(b.lookups, p.addrs[:p.n]) {
			return dst
		}
	}
	ct.Reset()
	dst, _ := t.recordBlock(nil, ct, src, off)
	t.tmpl.set(shape, ct)
	return dst
}

// recordBlock records one block encryption through the persistent
// recorder, appending to ct when it is non-nil and to buf otherwise.
func (t *Tracer) recordBlock(buf mem.Trace, ct *trace.Compiled, src []byte, off int) ([BlockSize]byte, mem.Trace) {
	rec := &t.rec
	rec.begin(t, buf, ct)
	dst := t.block(rec, src, off)
	out := rec.trace
	rec.trace, rec.ct = nil, nil
	return dst, out
}

// block encrypts src as the block at buffer offset off, recording the
// input read, the initial AddRoundKey, the rounds and the output write.
func (t *Tracer) block(rec *traceRec, src []byte, off int) [BlockSize]byte {
	rec.bufferIO(t.Layout.Input, off, mem.Read)
	rec.roundKeyReads(4) // initial AddRoundKey
	var dst [BlockSize]byte
	t.Cipher.Encrypt(dst[:], src, rec)
	rec.bufferIO(t.Layout.Output, off, mem.Write)
	return dst
}

// EncryptCBC encrypts src in CBC mode and returns the ciphertext and the
// whole run's access trace.
func (t *Tracer) EncryptCBC(src, iv []byte) ([]byte, mem.Trace, error) {
	return t.encryptCBC(nil, src, iv)
}

// EncryptCBCCompiled is EncryptCBC appending the run's trace to ct.
func (t *Tracer) EncryptCBCCompiled(ct *trace.Compiled, src, iv []byte) ([]byte, error) {
	dst, _, err := t.encryptCBC(ct, src, iv)
	return dst, err
}

// encryptCBC records a CBC encryption, appending to ct when it is non-nil
// and returning a mem.Trace otherwise.
func (t *Tracer) encryptCBC(ct *trace.Compiled, src, iv []byte) ([]byte, mem.Trace, error) {
	if err := checkCBC(len(src), len(src), len(iv)); err != nil {
		return nil, nil, err
	}
	rec := new(traceRec)
	rec.begin(t, nil, ct)
	dst := make([]byte, len(src))
	// Each block goes through the block recorder so buffer reads and
	// writes land at the right positions in the trace.
	var chain [BlockSize]byte
	copy(chain[:], iv)
	for off := 0; off < len(src); off += BlockSize {
		for i := 0; i < BlockSize; i++ {
			chain[i] ^= src[off+i]
		}
		chain = t.block(rec, chain[:], off)
		copy(dst[off:], chain[:])
	}
	return dst, rec.trace, nil
}

// DecryptCBC decrypts src in CBC mode and returns the plaintext and trace.
func (t *Tracer) DecryptCBC(src, iv []byte) ([]byte, mem.Trace, error) {
	return t.decryptCBC(nil, src, iv)
}

// DecryptCBCCompiled is DecryptCBC appending the run's trace to ct.
func (t *Tracer) DecryptCBCCompiled(ct *trace.Compiled, src, iv []byte) ([]byte, error) {
	dst, _, err := t.decryptCBC(ct, src, iv)
	return dst, err
}

// decryptCBC records a CBC decryption, appending to ct when it is non-nil
// and returning a mem.Trace otherwise.
func (t *Tracer) decryptCBC(ct *trace.Compiled, src, iv []byte) ([]byte, mem.Trace, error) {
	if err := checkCBC(len(src), len(src), len(iv)); err != nil {
		return nil, nil, err
	}
	rec := new(traceRec)
	rec.begin(t, nil, ct)
	dst := make([]byte, len(src))
	var chain [BlockSize]byte
	copy(chain[:], iv)
	for off := 0; off < len(src); off += BlockSize {
		rec.bufferIO(t.Layout.Input, off, mem.Read)
		rec.roundKeyReads(4)
		t.Cipher.Decrypt(dst[off:off+BlockSize], src[off:off+BlockSize], rec)
		for i := 0; i < BlockSize; i++ {
			dst[off+i] ^= chain[i]
		}
		rec.bufferIO(t.Layout.Output, off, mem.Write)
		copy(chain[:], src[off:off+BlockSize])
	}
	return dst, rec.trace, nil
}
