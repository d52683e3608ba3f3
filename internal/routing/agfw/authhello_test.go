package agfw

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/metrics"
	"anongeo/internal/mobility"
	"anongeo/internal/neighbor"
	"anongeo/internal/radio"
	"anongeo/internal/sim"
)

// Shared crypto fixtures for the authenticated-hello integration tests.
var (
	authOnce  sync.Once
	authCA    *anoncrypto.CA
	authKeys  []*anoncrypto.KeyPair
	authCerts []*anoncrypto.Cert
)

func authFixtures(t testing.TB) (*anoncrypto.CA, []*anoncrypto.KeyPair, []*anoncrypto.Cert) {
	t.Helper()
	authOnce.Do(func() {
		ca, err := anoncrypto.NewCA(1024)
		if err != nil {
			t.Fatalf("NewCA: %v", err)
		}
		authCA = ca
		for i := 0; i < 6; i++ {
			kp, err := anoncrypto.KeyPairFor(anoncrypto.Identity(fmt.Sprintf("n%d", i)), anoncrypto.DefaultKeyBits)
			if err != nil {
				t.Fatalf("keygen: %v", err)
			}
			c, err := ca.Issue(kp)
			if err != nil {
				t.Fatalf("issue: %v", err)
			}
			authKeys = append(authKeys, kp)
			authCerts = append(authCerts, c)
		}
	})
	return authCA, authKeys, authCerts
}

// buildAuthNet assembles a 3-node chain running genuinely ring-signed
// hellos.
func buildAuthNet(t *testing.T, seed int64) (*sim.Engine, []*Router, *metrics.Collector, *radio.Channel) {
	t.Helper()
	ca, keys, certs := authFixtures(t)
	eng := sim.NewEngine(seed)
	ch := radio.NewChannel(eng, 250)
	col := metrics.NewCollector()
	var routers []*Router
	for i := 0; i < 3; i++ {
		pool := make([]*anoncrypto.Cert, 0, len(certs)-1)
		for j, c := range certs {
			if j != i {
				pool = append(pool, c)
			}
		}
		cfg := DefaultConfig()
		cfg.AuthSigner = neighbor.NewSigner(keys[i], certs[i], pool, eng.NewStream())
		cfg.AuthVerifier = neighbor.NewVerifier(ca.PublicKey())
		cfg.AuthRingK = 2
		cfg.AuthAttachCerts = true
		d := mac.New(eng, ch, mobility.Static{At: geo.Pt(float64(i)*200, 0)}, mac.DefaultParams(), mac.Broadcast, nil, eng.NewStream())
		r := New(eng, d, keys[i].ID, d.Iface().Pos, NewModeledScheme(keys[i].ID), cfg, col, nil, eng.NewStream())
		r.Start()
		routers = append(routers, r)
	}
	return eng, routers, col, ch
}

func TestAuthHellosBuildANTAndRoute(t *testing.T) {
	eng, routers, col, _ := buildAuthNet(t, 1)
	if err := eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if routers[1].ANT().Len(eng.Now()) < 2 {
		t.Fatalf("middle ANT has %d entries after auth hellos", routers[1].ANT().Len(eng.Now()))
	}
	eng.Schedule(0, func() { routers[0].SendData("n2", geo.Pt(400, 0), 64, 1) })
	if err := eng.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if col.Summarize().Delivered != 1 {
		t.Fatalf("delivery over authenticated ANT failed: %v", col.Drops())
	}
}

func TestAuthModeRejectsSpoofedHellos(t *testing.T) {
	// An attacker without a CA-issued certificate floods plain hellos
	// advertising a great position; authenticated nodes must reject them
	// and keep routing through real neighbors only.
	eng, routers, _, ch := buildAuthNet(t, 2)

	// The spoofer broadcasts raw (unauthenticated) hellos.
	spoofRng := eng.NewStream()
	d := mac.New(eng, ch, mobility.Static{At: geo.Pt(200, 50)}, mac.DefaultParams(), mac.Broadcast, nil, eng.NewStream())
	var flood func()
	flood = func() {
		h := neighbor.Hello{N: anoncrypto.NewPseudonym(spoofRng, "mallory"), Loc: geo.Pt(390, 0), TS: eng.Now()}
		d.Send(mac.Broadcast, h, 23, nil)
		eng.Schedule(200*time.Millisecond, flood)
	}
	eng.Schedule(0, flood)

	if err := eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if routers[1].Stats().HellosRejected == 0 {
		t.Fatal("no spoofed hellos rejected")
	}
	// None of the spoofer's advertised entries may appear in the ANT.
	for _, e := range routers[1].ANT().Entries(eng.Now()) {
		if e.Loc == geo.Pt(390, 0) {
			t.Fatal("spoofed entry admitted to authenticated ANT")
		}
	}
}

func TestAuthHellosCostMoreAirtime(t *testing.T) {
	// Ring-signed hellos are ~an order of magnitude larger than plain
	// ones; the channel byte counters must show it.
	plainEng := sim.NewEngine(3)
	plainCh := radio.NewChannel(plainEng, 250)
	plainCol := metrics.NewCollector()
	for i := 0; i < 3; i++ {
		d := mac.New(plainEng, plainCh, mobility.Static{At: geo.Pt(float64(i)*200, 0)}, mac.DefaultParams(), mac.Broadcast, nil, plainEng.NewStream())
		r := New(plainEng, d, anoncrypto.Identity(fmt.Sprintf("n%d", i)), d.Iface().Pos,
			NewModeledScheme(anoncrypto.Identity(fmt.Sprintf("n%d", i))), DefaultConfig(), plainCol, nil, plainEng.NewStream())
		r.Start()
	}
	if err := plainEng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	authEng, _, _, authCh := buildAuthNet(t, 3)
	if err := authEng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if authCh.Stats().BitsSent <= 2*plainCh.Stats().BitsSent {
		t.Fatalf("auth hellos bits (%d) not substantially above plain (%d)",
			authCh.Stats().BitsSent, plainCh.Stats().BitsSent)
	}
}
