package neighbor

import (
	"math/rand"
	"sync"
	"testing"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// Shared crypto fixtures (key generation is expensive).
var (
	authOnce  sync.Once
	authKeys  []*anoncrypto.KeyPair
	authCerts []*anoncrypto.Cert
	authCA    *anoncrypto.CA
)

func authFixtures(t testing.TB) ([]*anoncrypto.KeyPair, []*anoncrypto.Cert, *anoncrypto.CA) {
	t.Helper()
	authOnce.Do(func() {
		ca, err := anoncrypto.NewCA(1024)
		if err != nil {
			t.Fatalf("NewCA: %v", err)
		}
		authCA = ca
		names := []anoncrypto.Identity{"alice", "bob", "carol", "dave", "erin", "frank"}
		for _, n := range names {
			kp, err := anoncrypto.KeyPairFor(n, anoncrypto.DefaultKeyBits)
			if err != nil {
				t.Fatalf("KeyPairFor: %v", err)
			}
			c, err := ca.Issue(kp)
			if err != nil {
				t.Fatalf("Issue: %v", err)
			}
			authKeys = append(authKeys, kp)
			authCerts = append(authCerts, c)
		}
	})
	return authKeys, authCerts, authCA
}

func newTestSigner(t testing.TB, seed int64) (*Signer, *anoncrypto.CA) {
	keys, certs, ca := authFixtures(t)
	return NewSigner(keys[0], certs[0], certs[1:], rand.New(rand.NewSource(seed))), ca
}

func testHello(seed int64) Hello {
	return Hello{N: newPseudo(seed), Loc: geo.Pt(100, 200), TS: 3 * sim.Second}
}

func TestAuthHelloSignVerify(t *testing.T) {
	s, ca := newTestSigner(t, 1)
	v := NewVerifier(ca.PublicKey())
	ah, err := s.Sign(testHello(1), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	size, err := v.Verify(ah)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if size != 4 {
		t.Fatalf("anonymity set = %d, want k+1 = 4", size)
	}
}

func TestAuthHelloRingContainsSigner(t *testing.T) {
	s, _ := newTestSigner(t, 2)
	ah, err := s.Sign(testHello(2), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range ah.Ring {
		if c.Subject == "alice" {
			found = true
		}
	}
	if !found {
		t.Fatal("signer's certificate missing from ring")
	}
}

func TestAuthHelloDecoysVaryAcrossHellos(t *testing.T) {
	s, _ := newTestSigner(t, 3)
	ringsSeen := map[string]bool{}
	for i := 0; i < 20; i++ {
		ah, err := s.Sign(testHello(int64(i)), 2, true)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, c := range ah.Ring {
			key += string(c.Subject) + ","
		}
		ringsSeen[key] = true
	}
	if len(ringsSeen) < 2 {
		t.Fatal("ring composition never varied; transmissions are correlatable")
	}
}

func TestAuthHelloTamperedBodyRejected(t *testing.T) {
	s, ca := newTestSigner(t, 4)
	v := NewVerifier(ca.PublicKey())
	ah, err := s.Sign(testHello(4), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ah.Hello.Loc = geo.Pt(999, 999) // spoof the advertised position
	if _, err := v.Verify(ah); err == nil {
		t.Fatal("forged position accepted")
	}
}

func TestAuthHelloForgedRingRejected(t *testing.T) {
	keys, certs, ca := authFixtures(t)
	v := NewVerifier(ca.PublicKey())
	// An outsider with a self-made (un-certified) key tries to join a ring.
	outsider, err := anoncrypto.KeyPairFor("mallory", anoncrypto.DefaultKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	fakeCert := certs[0].Clone()
	fakeCert.Subject = "mallory"
	fakeCert.PublicKey = outsider.Public()
	s := NewSigner(outsider, fakeCert, certs[1:], rand.New(rand.NewSource(5)))
	ah, err := s.Sign(testHello(5), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(ah); err == nil {
		t.Fatal("hello with forged certificate accepted")
	}
	_ = keys
}

func TestAuthHelloKValidation(t *testing.T) {
	s, _ := newTestSigner(t, 6)
	if _, err := s.Sign(testHello(6), 0, true); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.Sign(testHello(6), 100, true); err == nil {
		t.Fatal("k beyond pool accepted")
	}
}

func TestAuthHelloWireSizeGrowsWithK(t *testing.T) {
	s, _ := newTestSigner(t, 7)
	prev := 0
	for _, k := range []int{1, 2, 4} {
		ah, err := s.Sign(testHello(7), k, true)
		if err != nil {
			t.Fatal(err)
		}
		if ah.WireSize() <= prev {
			t.Fatalf("WireSize(k=%d) = %d, not growing (prev %d)", k, ah.WireSize(), prev)
		}
		prev = ah.WireSize()
	}
}

func TestAuthHelloReferencesSmallerThanAttached(t *testing.T) {
	s, _ := newTestSigner(t, 8)
	attached, err := s.Sign(testHello(8), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	referenced, err := s.Sign(testHello(8), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if referenced.WireSize() >= attached.WireSize() {
		t.Fatalf("reference mode (%d B) not smaller than attach mode (%d B)",
			referenced.WireSize(), attached.WireSize())
	}
}

func TestVerifierCachesCertsAndCountsMisses(t *testing.T) {
	s, ca := newTestSigner(t, 9)
	v := NewVerifier(ca.PublicKey())
	ah, err := s.Sign(testHello(9), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(ah); err != nil {
		t.Fatal(err)
	}
	firstMisses := v.Misses
	if firstMisses != 4 {
		t.Fatalf("cold-cache misses = %d, want 4", firstMisses)
	}
	// Re-verifying the same ring must be all cache hits.
	ah2, err := s.Sign(testHello(10), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Force the same ring membership by retrying until subset matches is
	// flaky; instead verify the first hello again.
	if _, err := v.Verify(ah); err != nil {
		t.Fatal(err)
	}
	if v.Misses != firstMisses {
		t.Fatalf("warm-cache verify added misses: %d → %d", firstMisses, v.Misses)
	}
	if _, err := v.Verify(ah2); err != nil {
		t.Fatal(err)
	}
	if v.CachedCerts() < 4 {
		t.Fatalf("CachedCerts = %d", v.CachedCerts())
	}
}

func TestVerifierRejectsMalformed(t *testing.T) {
	_, _, ca := authFixtures(t)
	v := NewVerifier(ca.PublicKey())
	if _, err := v.Verify(nil); err == nil {
		t.Fatal("nil hello accepted")
	}
	if _, err := v.Verify(&AuthHello{}); err == nil {
		t.Fatal("empty hello accepted")
	}
}
