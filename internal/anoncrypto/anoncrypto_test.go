package anoncrypto

import (
	"crypto/rsa"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"anongeo/internal/geo"
)

// Key generation dominates test time, so all tests share one lazily
// built pool of keypairs and certificates.
var (
	poolOnce  sync.Once
	poolKeys  []*KeyPair
	poolCerts []*Cert
	poolCA    *CA
)

func fixtures(t testing.TB) ([]*KeyPair, []*Cert, *CA) {
	t.Helper()
	poolOnce.Do(func() {
		ca, err := NewCA(1024)
		if err != nil {
			t.Fatalf("NewCA: %v", err)
		}
		poolCA = ca
		for i := 0; i < 8; i++ {
			kp, err := KeyPairFor(Identity(rune('A'+i)), DefaultKeyBits)
			if err != nil {
				t.Fatalf("KeyPairFor: %v", err)
			}
			cert, err := ca.Issue(kp)
			if err != nil {
				t.Fatalf("Issue: %v", err)
			}
			poolKeys = append(poolKeys, kp)
			poolCerts = append(poolCerts, cert)
		}
	})
	return poolKeys, poolCerts, poolCA
}

func ringOf(keys []*KeyPair, idx ...int) []*rsa.PublicKey {
	ring := make([]*rsa.PublicKey, len(idx))
	for i, j := range idx {
		ring[i] = keys[j].Public()
	}
	return ring
}

func TestKeyPairForValidation(t *testing.T) {
	if _, err := KeyPairFor("x", 256); err == nil {
		t.Fatal("expected error for 256-bit key")
	}
}

func TestCertIssueAndVerify(t *testing.T) {
	_, certs, ca := fixtures(t)
	for _, c := range certs {
		if err := c.Verify(ca.PublicKey()); err != nil {
			t.Fatalf("valid cert rejected: %v", err)
		}
	}
}

func TestCertSerialsUnique(t *testing.T) {
	_, certs, _ := fixtures(t)
	seen := map[uint64]bool{}
	for _, c := range certs {
		if seen[c.Serial] {
			t.Fatalf("duplicate serial %d", c.Serial)
		}
		seen[c.Serial] = true
	}
}

func TestCertTamperDetected(t *testing.T) {
	_, certs, ca := fixtures(t)
	tampered := certs[0].Clone()
	tampered.Subject = "mallory"
	if err := tampered.Verify(ca.PublicKey()); err == nil {
		t.Fatal("subject tampering not detected")
	}
	tampered2 := certs[0].Clone()
	tampered2.PublicKey = certs[1].PublicKey
	if err := tampered2.Verify(ca.PublicKey()); err == nil {
		t.Fatal("key substitution not detected")
	}
	tampered3 := certs[0].Clone()
	tampered3.Signature[0] ^= 1
	if err := tampered3.Verify(ca.PublicKey()); err == nil {
		t.Fatal("signature corruption not detected")
	}
}

func TestCertWrongCARejected(t *testing.T) {
	_, certs, _ := fixtures(t)
	otherCA, err := NewCA(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := certs[0].Verify(otherCA.PublicKey()); err == nil {
		t.Fatal("cert accepted under wrong CA key")
	}
}

func TestCertWireSizePositive(t *testing.T) {
	_, certs, _ := fixtures(t)
	if s := certs[0].WireSize(); s < 64 {
		t.Fatalf("WireSize = %d, implausibly small", s)
	}
}

func TestRingSignVerifyAllSignerPositions(t *testing.T) {
	keys, _, _ := fixtures(t)
	msg := []byte("HELLO n loc ts")
	ring := ringOf(keys, 0, 1, 2, 3)
	for s := 0; s < 4; s++ {
		sig, err := RingSign(msg, ring, s, keys[s].Private)
		if err != nil {
			t.Fatalf("RingSign signer %d: %v", s, err)
		}
		if !RingVerify(msg, ring, sig) {
			t.Fatalf("valid signature by member %d rejected", s)
		}
	}
}

func TestRingSignRejectsTamperedMessage(t *testing.T) {
	keys, _, _ := fixtures(t)
	ring := ringOf(keys, 0, 1, 2)
	sig, err := RingSign([]byte("original"), ring, 1, keys[1].Private)
	if err != nil {
		t.Fatal(err)
	}
	if RingVerify([]byte("forged"), ring, sig) {
		t.Fatal("tampered message verified")
	}
}

func TestRingSignRejectsDifferentRing(t *testing.T) {
	keys, _, _ := fixtures(t)
	msg := []byte("msg")
	ring := ringOf(keys, 0, 1, 2)
	sig, err := RingSign(msg, ring, 0, keys[0].Private)
	if err != nil {
		t.Fatal(err)
	}
	other := ringOf(keys, 0, 1, 3)
	if RingVerify(msg, other, sig) {
		t.Fatal("signature verified under a different ring")
	}
	reordered := ringOf(keys, 1, 0, 2)
	if RingVerify(msg, reordered, sig) {
		t.Fatal("signature verified under reordered ring")
	}
}

func TestRingSignRejectsTamperedSignature(t *testing.T) {
	keys, _, _ := fixtures(t)
	msg := []byte("msg")
	ring := ringOf(keys, 0, 1)
	sig, err := RingSign(msg, ring, 0, keys[0].Private)
	if err != nil {
		t.Fatal(err)
	}
	sig.V[0] ^= 1
	if RingVerify(msg, ring, sig) {
		t.Fatal("glue tampering verified")
	}
	sig.V[0] ^= 1
	sig.Xs[1] = new(big.Int).Add(sig.Xs[1], big.NewInt(1))
	if RingVerify(msg, ring, sig) {
		t.Fatal("x tampering verified")
	}
}

func TestRingSignErrors(t *testing.T) {
	keys, _, _ := fixtures(t)
	msg := []byte("m")
	if _, err := RingSign(msg, ringOf(keys, 0), 0, keys[0].Private); err == nil {
		t.Fatal("singleton ring accepted")
	}
	ring := ringOf(keys, 0, 1)
	if _, err := RingSign(msg, ring, 5, keys[0].Private); err == nil {
		t.Fatal("out-of-range signer accepted")
	}
	if _, err := RingSign(msg, ring, 0, keys[1].Private); err == nil {
		t.Fatal("mismatched private key accepted")
	}
}

func TestRingVerifyRejectsMalformed(t *testing.T) {
	keys, _, _ := fixtures(t)
	ring := ringOf(keys, 0, 1, 2)
	if RingVerify([]byte("m"), ring, nil) {
		t.Fatal("nil signature verified")
	}
	sig, err := RingSign([]byte("m"), ring, 0, keys[0].Private)
	if err != nil {
		t.Fatal(err)
	}
	short := &RingSignature{Bits: sig.Bits, V: sig.V, Xs: sig.Xs[:2]}
	if RingVerify([]byte("m"), ring, short) {
		t.Fatal("truncated signature verified")
	}
	sig.Xs[0] = nil
	if RingVerify([]byte("m"), ring, sig) {
		t.Fatal("nil element verified")
	}
}

func TestRingSizeScaling(t *testing.T) {
	keys, _, _ := fixtures(t)
	msg := []byte("scaling")
	prev := 0
	for _, k := range []int{2, 4, 8} {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		ring := ringOf(keys, idx...)
		sig, err := RingSign(msg, ring, 0, keys[0].Private)
		if err != nil {
			t.Fatal(err)
		}
		if !RingVerify(msg, ring, sig) {
			t.Fatalf("k=%d signature rejected", k)
		}
		if sig.WireSize() <= prev {
			t.Fatalf("WireSize did not grow with ring size: %d then %d", prev, sig.WireSize())
		}
		prev = sig.WireSize()
	}
}

func TestTrapdoorRoundTrip(t *testing.T) {
	keys, _, _ := fixtures(t)
	payload := TrapdoorPayload{Src: "A", SrcLoc: geo.Pt(123.5, 45.25), Timestamp: 987654321}
	td, err := MakeTrapdoor(keys[1].Public(), payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenTrapdoor(keys[1].Private, td)
	if err != nil {
		t.Fatalf("destination could not open trapdoor: %v", err)
	}
	if got.Src != "A" || got.Timestamp != 987654321 {
		t.Fatalf("payload = %+v", got)
	}
	if got.SrcLoc.Dist(payload.SrcLoc) > 0.01 {
		t.Fatalf("location drift: %v vs %v", got.SrcLoc, payload.SrcLoc)
	}
}

func TestTrapdoorOnlyDestinationOpens(t *testing.T) {
	keys, _, _ := fixtures(t)
	td, err := MakeTrapdoor(keys[2].Public(), TrapdoorPayload{Src: "B"})
	if err != nil {
		t.Fatal(err)
	}
	for i, kp := range keys {
		_, err := OpenTrapdoor(kp.Private, td)
		if i == 2 && err != nil {
			t.Fatalf("destination failed to open: %v", err)
		}
		if i != 2 && err == nil {
			t.Fatalf("non-destination %d opened the trapdoor", i)
		}
	}
}

func TestTrapdoorSizeMatchesPaper(t *testing.T) {
	keys, _, _ := fixtures(t)
	td, err := MakeTrapdoor(keys[0].Public(), TrapdoorPayload{Src: "node-007", SrcLoc: geo.Pt(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	// §5.1: "the size of trapdoor does not exceed 64-byte since it is
	// obtained from the RSA encryption with a 512-bit public key."
	if len(td) != 64 {
		t.Fatalf("trapdoor = %d bytes, want 64 with RSA-512", len(td))
	}
}

func TestTrapdoorIdentityTooLong(t *testing.T) {
	keys, _, _ := fixtures(t)
	long := Identity(make([]byte, MaxTrapdoorIdentity+1))
	if _, err := MakeTrapdoor(keys[0].Public(), TrapdoorPayload{Src: long}); err == nil {
		t.Fatal("oversized identity accepted")
	}
}

func TestTrapdoorGarbageRejected(t *testing.T) {
	keys, _, _ := fixtures(t)
	if _, err := OpenTrapdoor(keys[0].Private, Trapdoor(make([]byte, 64))); err == nil {
		t.Fatal("garbage trapdoor opened")
	}
}

func TestPseudonymProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[Pseudonym]bool{}
	for i := 0; i < 1000; i++ {
		p := NewPseudonym(rng, "node-1")
		if p.IsLastHop() {
			t.Fatal("generated the reserved zero pseudonym")
		}
		if seen[p] {
			t.Fatalf("pseudonym collision after %d draws", i)
		}
		seen[p] = true
	}
}

func TestPseudonymDeterministicPerStream(t *testing.T) {
	a := NewPseudonym(rand.New(rand.NewSource(7)), "n")
	b := NewPseudonym(rand.New(rand.NewSource(7)), "n")
	if a != b {
		t.Fatal("same stream and identity gave different pseudonyms")
	}
	c := NewPseudonym(rand.New(rand.NewSource(7)), "other")
	if a == c {
		t.Fatal("different identities gave same pseudonym for same pr")
	}
}

func TestPseudonymLastHopMarker(t *testing.T) {
	if !LastHop.IsLastHop() {
		t.Fatal("LastHop.IsLastHop() = false")
	}
	if LastHop.String() != "000000000000" {
		t.Fatalf("LastHop.String() = %q", LastHop.String())
	}
}

// Benchmarks backing experiment A1 (ring size vs crypto cost).

func benchRing(b *testing.B, k int, verify bool) {
	keys, _, _ := fixtures(b)
	if k > len(keys) {
		b.Skipf("only %d fixture keys", len(keys))
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	ring := ringOf(keys, idx...)
	msg := []byte("HELLO pseudonym loc ts")
	sig, err := RingSign(msg, ring, 0, keys[0].Private)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(sig.WireSize()), "sig-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if verify {
			if !RingVerify(msg, ring, sig) {
				b.Fatal("verify failed")
			}
		} else {
			if _, err := RingSign(msg, ring, 0, keys[0].Private); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRingSignK2(b *testing.B)   { benchRing(b, 2, false) }
func BenchmarkRingSignK4(b *testing.B)   { benchRing(b, 4, false) }
func BenchmarkRingSignK8(b *testing.B)   { benchRing(b, 8, false) }
func BenchmarkRingVerifyK2(b *testing.B) { benchRing(b, 2, true) }
func BenchmarkRingVerifyK4(b *testing.B) { benchRing(b, 4, true) }
func BenchmarkRingVerifyK8(b *testing.B) { benchRing(b, 8, true) }

func BenchmarkTrapdoorMake(b *testing.B) {
	keys, _, _ := fixtures(b)
	p := TrapdoorPayload{Src: "A", SrcLoc: geo.Pt(1, 2), Timestamp: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MakeTrapdoor(keys[0].Public(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrapdoorOpen(b *testing.B) {
	keys, _, _ := fixtures(b)
	td, err := MakeTrapdoor(keys[0].Public(), TrapdoorPayload{Src: "A"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenTrapdoor(keys[0].Private, td); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrapdoorOpenWrongKey(b *testing.B) {
	keys, _, _ := fixtures(b)
	td, err := MakeTrapdoor(keys[0].Public(), TrapdoorPayload{Src: "A"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenTrapdoor(keys[1].Private, td); err == nil {
			b.Fatal("wrong key opened trapdoor")
		}
	}
}
