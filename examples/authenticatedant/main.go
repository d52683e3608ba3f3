// Authenticated ANT walkthrough (§3.1.2): nodes exchange genuinely
// ring-signed hello messages — each beacon proves "an authorized node
// sent this" while hiding which of k+1 ring members signed — and a
// certificate-less attacker's spoofed hellos are rejected before they
// can poison anyone's neighbor table.
//
//	go run ./examples/authenticatedant
package main

import (
	"fmt"
	"log"
	"math/rand"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/neighbor"
	"anongeo/internal/sim"
)

func main() {
	// A certification authority provisions five legitimate nodes.
	ca, err := anoncrypto.NewCA(1024)
	if err != nil {
		log.Fatal(err)
	}
	names := []anoncrypto.Identity{"alice", "bob", "carol", "dave", "erin"}
	keys := map[anoncrypto.Identity]*anoncrypto.KeyPair{}
	var certs []*anoncrypto.Cert
	for _, n := range names {
		kp, err := anoncrypto.KeyPairFor(n, anoncrypto.DefaultKeyBits)
		if err != nil {
			log.Fatal(err)
		}
		cert, err := ca.Issue(kp)
		if err != nil {
			log.Fatal(err)
		}
		keys[n] = kp
		certs = append(certs, cert)
	}
	fmt.Printf("CA issued %d certificates (RSA-%d)\n\n", len(certs), anoncrypto.DefaultKeyBits)

	// Alice signs a hello with k = 3 decoys.
	rng := rand.New(rand.NewSource(42))
	signer := neighbor.NewSigner(keys["alice"], certs[0], certs[1:], rng)
	pm := neighbor.NewPseudonymMemory("alice", rng, 2)
	hello := neighbor.Hello{N: pm.Current(), Loc: geo.Pt(740, 150), TS: 30 * sim.Second}

	const k = 3
	ah, err := signer.Sign(hello, k, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's hello: pseudonym %s at %v\n", hello.N, hello.Loc)
	fmt.Printf("ring (%d members, alice hidden among them):", len(ah.Ring))
	for _, c := range ah.Ring {
		fmt.Printf(" %s", c.Subject)
	}
	fmt.Printf("\non-air size: %d B with serial references (vs %d B plain, %d B attaching certs)\n\n",
		ah.WireSize(), 23, neighbor.EstimateAuthHelloBytes(k, anoncrypto.DefaultKeyBits, true))

	// Bob verifies: the hello is authentic, with (k+1)-anonymity.
	verifier := neighbor.NewVerifier(ca.PublicKey())
	anonSet, err := verifier.Verify(ah)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob verified the hello: sender is one of %d authorized nodes — but which\n", anonSet)
	fmt.Printf("one is cryptographically hidden (ring signature signer-ambiguity)\n\n")

	// Mallory has no CA certificate. She forges one and tries anyway.
	mallory, err := anoncrypto.KeyPairFor("mallory", anoncrypto.DefaultKeyBits)
	if err != nil {
		log.Fatal(err)
	}
	forged := certs[1].Clone()
	forged.Subject = "mallory"
	forged.PublicKey = mallory.Public()
	attacker := neighbor.NewSigner(mallory, forged, certs, rng)
	spoofed, err := attacker.Sign(neighbor.Hello{N: pm.Rotate(), Loc: geo.Pt(1, 1)}, k, false)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := verifier.Verify(spoofed); err != nil {
		fmt.Printf("mallory's spoofed hello rejected: %v\n", err)
	} else {
		log.Fatal("spoofed hello accepted — broken!")
	}

	// Tampering with an authentic hello's position also fails.
	ah.Hello.Loc = geo.Pt(0, 0)
	if _, err := verifier.Verify(ah); err != nil {
		fmt.Println("tampered position on an authentic hello rejected too")
	} else {
		log.Fatal("tampered hello accepted — broken!")
	}

	fmt.Println("\nTrade-off (§4): larger rings mean stronger anonymity but more bytes")
	fmt.Println("and more public-key operations per hello:")
	fmt.Println("k\tanonymity\tbytes(ref)\tbytes(attach)")
	for _, kk := range []int{1, 2, 4} {
		fmt.Printf("%d\t%d\t%d\t%d\n", kk, kk+1,
			neighbor.EstimateAuthHelloBytes(kk, anoncrypto.DefaultKeyBits, false),
			neighbor.EstimateAuthHelloBytes(kk, anoncrypto.DefaultKeyBits, true))
	}
}
