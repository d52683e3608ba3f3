// Package anoncrypto provides the cryptographic building blocks the paper
// assumes: RSA keypairs with CA-issued certificates, Rivest–Shamir–Tauman
// ring signatures (the primitive behind the authenticated anonymous
// neighbor table of §3.1.2), public-key trapdoors for destination
// detection in AGFW (§3.2), and hash-generated pseudonyms n = H(pr‖id).
//
// Everything is built on the Go standard library (crypto/rsa, crypto/aes,
// crypto/sha256). Key sizes default to the paper's RSA-512; that is far
// too small for modern security but reproduces the paper's 64-byte
// trapdoor and its timing model faithfully. Pass a larger bits value for
// real use.
//
// Node and client keys come from KeyPairFor, a public function of
// (identity, bits): the primes are drawn from a SHA-256 stream seeded by
// nothing secret, and each key is derived once per process and shared.
// They are simulation stand-ins for the PKI the paper assumes, not
// secrets — anyone can recompute any node's private key. Only the CA's
// signing key (NewCA) is drawn from crypto/rand.
//
// 512-bit keys work only because go.mod's "go 1.22" line keeps the
// rsa1024min=0 GODEBUG default under Go 1.24, whose crypto/rsa otherwise
// rejects keys below 1024 bits. Raising that line needs a
// "godebug rsa1024min=0" directive in go.mod.
package anoncrypto

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
)

// Identity is a node's real, globally unique name — the thing the paper's
// scheme works to keep unlinkable from locations.
type Identity string

// DefaultKeyBits matches the paper's RSA-512 evaluation setting.
const DefaultKeyBits = 512

// KeyPair couples a node's RSA keys with its identity.
type KeyPair struct {
	ID      Identity
	Private *rsa.PrivateKey
}

// Public returns the public half.
func (k *KeyPair) Public() *rsa.PublicKey { return &k.Private.PublicKey }

// keyRef names one pool entry.
type keyRef struct {
	id   Identity
	bits int
}

// keySlot holds one pooled key; once makes concurrent first callers
// share a single derivation.
type keySlot struct {
	once sync.Once
	kp   *KeyPair
	err  error
}

// keyPool memoises KeyPairFor process-wide (keyRef → *keySlot). It only
// grows, by one entry per distinct (identity, bits) ever asked for, so
// its size is bounded by the largest population a process has run, not
// by how many runs it made. Entries are pure functions of their key, so
// sharing them cannot couple one run or test to another.
var keyPool sync.Map

// derivations counts deriveKeyPair calls; tests use it to check that the
// pool derives each key exactly once.
var derivations atomic.Int64

// KeyPairFor returns id's RSA keypair with a bits-bit modulus. The key is
// a deterministic function of (id, bits), derived on first use and then
// shared by every caller in the process: treat it as read-only. bits must
// be at least 512.
func KeyPairFor(id Identity, bits int) (*KeyPair, error) {
	if bits < 512 {
		return nil, fmt.Errorf("anoncrypto: key size %d below 512 bits", bits)
	}
	ref := keyRef{id, bits}
	v, ok := keyPool.Load(ref)
	if !ok {
		v, _ = keyPool.LoadOrStore(ref, new(keySlot))
	}
	s := v.(*keySlot)
	s.once.Do(func() { s.kp, s.err = deriveKeyPair(id, bits) })
	return s.kp, s.err
}

// keyDomain separates the key-derivation stream from every other
// SHA-256 over identities in the program (pseudonyms hash them too).
const keyDomain = "anongeo/anoncrypto/keypair/v1"

// keyExponent is the public exponent, as crypto/rsa.GenerateKey uses.
const keyExponent = 65537

// deriveKeyPair builds id's bits-bit key without the pool. Stdlib
// rsa.GenerateKey cannot do this: it ignores a supplied reader's exact
// bytes (randutil.MaybeReadByte), so the key is assembled here from
// math/big primes and checked by Precompute and Validate before use.
func deriveKeyPair(id Identity, bits int) (*KeyPair, error) {
	derivations.Add(1)
	s := newKeyStream(id, bits)
	one := big.NewInt(1)
	e := big.NewInt(keyExponent)
	for {
		p := s.prime(bits - bits/2)
		q := s.prime(bits / 2)
		if p.Cmp(q) == 0 {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil { // gcd(e, φ) ≠ 1
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		priv := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: keyExponent},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		priv.Precompute()
		if err := priv.Validate(); err != nil {
			return nil, fmt.Errorf("anoncrypto: deriving key for %q: %w", id, err)
		}
		return &KeyPair{ID: id, Private: priv}, nil
	}
}

// keyStream is a SHA-256 counter-mode byte stream: block i is
// SHA-256(seed ‖ i) with seed = SHA-256(keyDomain ‖ bits ‖ id). bits is
// fixed-width and id comes last, so distinct inputs never share a seed
// preimage.
type keyStream struct {
	block [sha256.Size + 8]byte // seed ‖ big-endian counter
	ctr   uint64
}

func newKeyStream(id Identity, bits int) *keyStream {
	h := sha256.New()
	h.Write([]byte(keyDomain))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(bits))
	h.Write(b[:])
	h.Write([]byte(id))
	s := &keyStream{}
	h.Sum(s.block[:0])
	return s
}

func (s *keyStream) fill(buf []byte) {
	for len(buf) > 0 {
		binary.BigEndian.PutUint64(s.block[sha256.Size:], s.ctr)
		s.ctr++
		sum := sha256.Sum256(s.block[:])
		buf = buf[copy(buf, sum[:]):]
	}
}

// prime draws candidates of exactly bits bits, with the top two bits set
// (so the product of two such primes has the full modulus length) and the
// low bit set, until one passes ProbablyPrime(20).
func (s *keyStream) prime(bits int) *big.Int {
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		s.fill(buf)
		buf[0] &= 0xff >> (len(buf)*8 - bits)
		p.SetBytes(buf)
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p
		}
	}
}
