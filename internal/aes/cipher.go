package aes

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the key size in bytes of the paper's case study (AES-128);
// 24- and 32-byte keys (AES-192/-256) are also supported, as the paper's
// background section notes ("three possible key sizes: 128, 192, 256
// bits ... 10, 12 or 14 rounds").
const KeySize = 16

// Rounds is the round count for AES-128 keys (Cipher.Rounds reports the
// actual count for longer keys).
const Rounds = 10

// Cipher holds the expanded encryption and decryption key schedules.
type Cipher struct {
	enc []uint32
	// dec is the equivalent inverse cipher schedule, built lazily on first
	// Decrypt: its InvMixColumns expansion costs ~40 gmul field
	// multiplications per round key, which encryption-only workloads (the
	// Monte Carlo analyses re-key per trial) should never pay.
	dec      []uint32
	decValid bool
	rounds   int
}

// New expands a 16-, 24- or 32-byte key into a Cipher (AES-128/-192/-256).
func New(key []byte) (*Cipher, error) {
	c := &Cipher{}
	if err := c.SetKey(key); err != nil {
		return nil, err
	}
	return c, nil
}

// SetKey re-keys the cipher in place, reusing the schedule storage, so
// per-trial re-keying loops do not allocate. It accepts the same key sizes
// as New.
func (c *Cipher) SetKey(key []byte) error {
	switch len(key) {
	case 16:
		c.rounds = 10
	case 24:
		c.rounds = 12
	case 32:
		c.rounds = 14
	default:
		return fmt.Errorf("aes: invalid key size %d (want 16, 24 or 32)", len(key))
	}
	c.decValid = false
	c.expandKey(key)
	return nil
}

// Rounds returns the cipher's round count (10, 12 or 14).
func (c *Cipher) Rounds() int { return c.rounds }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// imcWord applies InvMixColumns to one column word.
func imcWord(w uint32) uint32 {
	b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	return uint32(gmul(b0, 0x0e)^gmul(b1, 0x0b)^gmul(b2, 0x0d)^gmul(b3, 0x09))<<24 |
		uint32(gmul(b0, 0x09)^gmul(b1, 0x0e)^gmul(b2, 0x0b)^gmul(b3, 0x0d))<<16 |
		uint32(gmul(b0, 0x0d)^gmul(b1, 0x09)^gmul(b2, 0x0e)^gmul(b3, 0x0b))<<8 |
		uint32(gmul(b0, 0x0b)^gmul(b1, 0x0d)^gmul(b2, 0x09)^gmul(b3, 0x0e))
}

func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	if cap(c.enc) < n {
		c.enc = make([]uint32, n)
	}
	c.enc = c.enc[:n]
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < n; i++ {
		t := c.enc[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk-1])<<24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}
}

// decSchedule builds the equivalent inverse cipher key schedule on first
// use: reverse round order and apply InvMixColumns to the inner round keys.
func (c *Cipher) decSchedule() {
	if c.decValid {
		return
	}
	n := 4 * (c.rounds + 1)
	if cap(c.dec) < n {
		c.dec = make([]uint32, n)
	}
	c.dec = c.dec[:n]
	for i := 0; i < n; i += 4 {
		for j := 0; j < 4; j++ {
			w := c.enc[n-4-i+j]
			if i > 0 && i < n-4 {
				w = imcWord(w)
			}
			c.dec[i+j] = w
		}
	}
	c.decValid = true
}

// LastRoundKey returns the final round key as 16 bytes; the final-round
// collision attack recovers XOR relations between its bytes.
func (c *Cipher) LastRoundKey() [16]byte {
	var out [16]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(out[4*i:], c.enc[4*c.rounds+i])
	}
	return out
}

// Recorder observes the key-dependent table lookups of a traced encryption
// or decryption. Table ids are 0..4 for Te0..Te4 and 5..9 for Td0..Td4;
// index is the byte index into the 256-entry table; round is 1..Rounds();
// first reports whether this is the first lookup of its round (used by the
// timing model to approximate the round-to-round data dependence).
type Recorder interface {
	Lookup(table int, index byte, round int, first bool)
}

// Table ids passed to Recorder.Lookup.
const (
	TableTe0 = iota
	TableTe1
	TableTe2
	TableTe3
	TableTe4
	TableTd0
	TableTd1
	TableTd2
	TableTd3
	TableTd4
	NumTables
)

// Encrypt encrypts one 16-byte block from src into dst (which may alias).
// If rec is non-nil every table lookup is reported to it.
func (c *Cipher) Encrypt(dst, src []byte, rec Recorder) {
	_ = src[15]
	_ = dst[15]
	s0 := binary.BigEndian.Uint32(src[0:]) ^ c.enc[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ c.enc[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ c.enc[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ c.enc[3]

	var t0, t1, t2, t3 uint32
	k := 4
	for r := 1; r < c.rounds; r++ {
		if rec != nil {
			rec.Lookup(TableTe0, byte(s0>>24), r, true)
			rec.Lookup(TableTe1, byte(s1>>16), r, false)
			rec.Lookup(TableTe2, byte(s2>>8), r, false)
			rec.Lookup(TableTe3, byte(s3), r, false)
			rec.Lookup(TableTe0, byte(s1>>24), r, false)
			rec.Lookup(TableTe1, byte(s2>>16), r, false)
			rec.Lookup(TableTe2, byte(s3>>8), r, false)
			rec.Lookup(TableTe3, byte(s0), r, false)
			rec.Lookup(TableTe0, byte(s2>>24), r, false)
			rec.Lookup(TableTe1, byte(s3>>16), r, false)
			rec.Lookup(TableTe2, byte(s0>>8), r, false)
			rec.Lookup(TableTe3, byte(s1), r, false)
			rec.Lookup(TableTe0, byte(s3>>24), r, false)
			rec.Lookup(TableTe1, byte(s0>>16), r, false)
			rec.Lookup(TableTe2, byte(s1>>8), r, false)
			rec.Lookup(TableTe3, byte(s2), r, false)
		}
		t0 = te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ c.enc[k]
		t1 = te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ c.enc[k+1]
		t2 = te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ c.enc[k+2]
		t3 = te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ c.enc[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}

	// Final round: Te4 (replicated S-box), no MixColumns.
	if rec != nil {
		rec.Lookup(TableTe4, byte(s0>>24), c.rounds, true)
		rec.Lookup(TableTe4, byte(s1>>16), c.rounds, false)
		rec.Lookup(TableTe4, byte(s2>>8), c.rounds, false)
		rec.Lookup(TableTe4, byte(s3), c.rounds, false)
		rec.Lookup(TableTe4, byte(s1>>24), c.rounds, false)
		rec.Lookup(TableTe4, byte(s2>>16), c.rounds, false)
		rec.Lookup(TableTe4, byte(s3>>8), c.rounds, false)
		rec.Lookup(TableTe4, byte(s0), c.rounds, false)
		rec.Lookup(TableTe4, byte(s2>>24), c.rounds, false)
		rec.Lookup(TableTe4, byte(s3>>16), c.rounds, false)
		rec.Lookup(TableTe4, byte(s0>>8), c.rounds, false)
		rec.Lookup(TableTe4, byte(s1), c.rounds, false)
		rec.Lookup(TableTe4, byte(s3>>24), c.rounds, false)
		rec.Lookup(TableTe4, byte(s0>>16), c.rounds, false)
		rec.Lookup(TableTe4, byte(s1>>8), c.rounds, false)
		rec.Lookup(TableTe4, byte(s2), c.rounds, false)
	}
	u0 := te4[s0>>24]&0xff000000 ^ te4[s1>>16&0xff]&0x00ff0000 ^
		te4[s2>>8&0xff]&0x0000ff00 ^ te4[s3&0xff]&0x000000ff ^ c.enc[k]
	u1 := te4[s1>>24]&0xff000000 ^ te4[s2>>16&0xff]&0x00ff0000 ^
		te4[s3>>8&0xff]&0x0000ff00 ^ te4[s0&0xff]&0x000000ff ^ c.enc[k+1]
	u2 := te4[s2>>24]&0xff000000 ^ te4[s3>>16&0xff]&0x00ff0000 ^
		te4[s0>>8&0xff]&0x0000ff00 ^ te4[s1&0xff]&0x000000ff ^ c.enc[k+2]
	u3 := te4[s3>>24]&0xff000000 ^ te4[s0>>16&0xff]&0x00ff0000 ^
		te4[s1>>8&0xff]&0x0000ff00 ^ te4[s2&0xff]&0x000000ff ^ c.enc[k+3]

	binary.BigEndian.PutUint32(dst[0:], u0)
	binary.BigEndian.PutUint32(dst[4:], u1)
	binary.BigEndian.PutUint32(dst[8:], u2)
	binary.BigEndian.PutUint32(dst[12:], u3)
}

// Decrypt decrypts one 16-byte block from src into dst (which may alias).
// If rec is non-nil every table lookup is reported to it.
func (c *Cipher) Decrypt(dst, src []byte, rec Recorder) {
	_ = src[15]
	_ = dst[15]
	c.decSchedule()
	s0 := binary.BigEndian.Uint32(src[0:]) ^ c.dec[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ c.dec[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ c.dec[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ c.dec[3]

	var t0, t1, t2, t3 uint32
	k := 4
	for r := 1; r < c.rounds; r++ {
		if rec != nil {
			rec.Lookup(TableTd0, byte(s0>>24), r, true)
			rec.Lookup(TableTd1, byte(s3>>16), r, false)
			rec.Lookup(TableTd2, byte(s2>>8), r, false)
			rec.Lookup(TableTd3, byte(s1), r, false)
			rec.Lookup(TableTd0, byte(s1>>24), r, false)
			rec.Lookup(TableTd1, byte(s0>>16), r, false)
			rec.Lookup(TableTd2, byte(s3>>8), r, false)
			rec.Lookup(TableTd3, byte(s2), r, false)
			rec.Lookup(TableTd0, byte(s2>>24), r, false)
			rec.Lookup(TableTd1, byte(s1>>16), r, false)
			rec.Lookup(TableTd2, byte(s0>>8), r, false)
			rec.Lookup(TableTd3, byte(s3), r, false)
			rec.Lookup(TableTd0, byte(s3>>24), r, false)
			rec.Lookup(TableTd1, byte(s2>>16), r, false)
			rec.Lookup(TableTd2, byte(s1>>8), r, false)
			rec.Lookup(TableTd3, byte(s0), r, false)
		}
		t0 = td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff] ^ c.dec[k]
		t1 = td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff] ^ c.dec[k+1]
		t2 = td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff] ^ c.dec[k+2]
		t3 = td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff] ^ c.dec[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}

	if rec != nil {
		rec.Lookup(TableTd4, byte(s0>>24), c.rounds, true)
		rec.Lookup(TableTd4, byte(s3>>16), c.rounds, false)
		rec.Lookup(TableTd4, byte(s2>>8), c.rounds, false)
		rec.Lookup(TableTd4, byte(s1), c.rounds, false)
		rec.Lookup(TableTd4, byte(s1>>24), c.rounds, false)
		rec.Lookup(TableTd4, byte(s0>>16), c.rounds, false)
		rec.Lookup(TableTd4, byte(s3>>8), c.rounds, false)
		rec.Lookup(TableTd4, byte(s2), c.rounds, false)
		rec.Lookup(TableTd4, byte(s2>>24), c.rounds, false)
		rec.Lookup(TableTd4, byte(s1>>16), c.rounds, false)
		rec.Lookup(TableTd4, byte(s0>>8), c.rounds, false)
		rec.Lookup(TableTd4, byte(s3), c.rounds, false)
		rec.Lookup(TableTd4, byte(s3>>24), c.rounds, false)
		rec.Lookup(TableTd4, byte(s2>>16), c.rounds, false)
		rec.Lookup(TableTd4, byte(s1>>8), c.rounds, false)
		rec.Lookup(TableTd4, byte(s0), c.rounds, false)
	}
	u0 := td4[s0>>24]&0xff000000 ^ td4[s3>>16&0xff]&0x00ff0000 ^
		td4[s2>>8&0xff]&0x0000ff00 ^ td4[s1&0xff]&0x000000ff ^ c.dec[k]
	u1 := td4[s1>>24]&0xff000000 ^ td4[s0>>16&0xff]&0x00ff0000 ^
		td4[s3>>8&0xff]&0x0000ff00 ^ td4[s2&0xff]&0x000000ff ^ c.dec[k+1]
	u2 := td4[s2>>24]&0xff000000 ^ td4[s1>>16&0xff]&0x00ff0000 ^
		td4[s0>>8&0xff]&0x0000ff00 ^ td4[s3&0xff]&0x000000ff ^ c.dec[k+2]
	u3 := td4[s3>>24]&0xff000000 ^ td4[s2>>16&0xff]&0x00ff0000 ^
		td4[s1>>8&0xff]&0x0000ff00 ^ td4[s0&0xff]&0x000000ff ^ c.dec[k+3]

	binary.BigEndian.PutUint32(dst[0:], u0)
	binary.BigEndian.PutUint32(dst[4:], u1)
	binary.BigEndian.PutUint32(dst[8:], u2)
	binary.BigEndian.PutUint32(dst[12:], u3)
}

// EncryptCBC encrypts src (a multiple of BlockSize) into dst using CBC mode
// with iv, reporting lookups to rec if non-nil. This is the paper's
// performance workload: "OpenSSL's AES encryption that takes a 32 KB random
// input and does a cipher block chaining (CBC) mode of encryption."
func (c *Cipher) EncryptCBC(dst, src, iv []byte, rec Recorder) error {
	if err := checkCBC(len(dst), len(src), len(iv)); err != nil {
		return err
	}
	var chain [BlockSize]byte
	copy(chain[:], iv)
	var x [BlockSize]byte
	for off := 0; off < len(src); off += BlockSize {
		for i := 0; i < BlockSize; i++ {
			x[i] = src[off+i] ^ chain[i]
		}
		c.Encrypt(dst[off:off+BlockSize], x[:], rec)
		copy(chain[:], dst[off:off+BlockSize])
	}
	return nil
}

// checkCBC validates the buffer lengths of a CBC call.
func checkCBC(dstLen, srcLen, ivLen int) error {
	if srcLen%BlockSize != 0 {
		return fmt.Errorf("aes: CBC input length %d not a multiple of %d", srcLen, BlockSize)
	}
	if dstLen < srcLen {
		return fmt.Errorf("aes: CBC output too short: %d < %d", dstLen, srcLen)
	}
	if ivLen != BlockSize {
		return fmt.Errorf("aes: CBC iv length %d (want %d)", ivLen, BlockSize)
	}
	return nil
}

// DecryptCBC decrypts src into dst using CBC mode with iv.
func (c *Cipher) DecryptCBC(dst, src, iv []byte, rec Recorder) error {
	if err := checkCBC(len(dst), len(src), len(iv)); err != nil {
		return err
	}
	var chain, next [BlockSize]byte
	copy(chain[:], iv)
	for off := 0; off < len(src); off += BlockSize {
		copy(next[:], src[off:off+BlockSize])
		c.Decrypt(dst[off:off+BlockSize], src[off:off+BlockSize], rec)
		for i := 0; i < BlockSize; i++ {
			dst[off+i] ^= chain[i]
		}
		chain = next
	}
	return nil
}
