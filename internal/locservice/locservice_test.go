package locservice

import (
	"crypto/rsa"
	"testing"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

const ttl = 30 * sim.Second

func lsFixtures(t testing.TB) map[anoncrypto.Identity]*anoncrypto.KeyPair {
	t.Helper()
	keys := make(map[anoncrypto.Identity]*anoncrypto.KeyPair)
	for _, id := range []anoncrypto.Identity{"A", "B", "C", "D", "E"} {
		kp, err := anoncrypto.KeyPairFor(id, anoncrypto.DefaultKeyBits)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		keys[id] = kp
	}
	return keys
}

func testSSA() ServerSelection {
	return NewServerSelection(geo.NewGridMap(geo.NewRect(1500, 300), 300), 2)
}

func dirOf(keys map[anoncrypto.Identity]*anoncrypto.KeyPair) func(anoncrypto.Identity) (*rsa.PublicKey, bool) {
	return func(id anoncrypto.Identity) (*rsa.PublicKey, bool) {
		kp, ok := keys[id]
		if !ok {
			return nil, false
		}
		return kp.Public(), true
	}
}

func TestSSAHomeCellsDeterministic(t *testing.T) {
	s := testSSA()
	a, b := s.HomeCells("node-42"), s.HomeCells("node-42")
	if len(a) != 2 {
		t.Fatalf("replicas = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ssa not deterministic")
		}
	}
	if s.HomeCells("node-42")[0] == s.HomeCells("node-43")[0] &&
		s.HomeCells("node-42")[1] == s.HomeCells("node-43")[1] {
		t.Fatal("different identities share all home cells (suspicious)")
	}
}

func TestSSAHomeCellsInGrid(t *testing.T) {
	s := testSSA()
	for i := 0; i < 50; i++ {
		for _, c := range s.HomeCells(anoncrypto.Identity(rune('a' + i))) {
			if c.Col < 0 || c.Col >= s.Grid.Cols() || c.Row < 0 || c.Row >= s.Grid.Rows() {
				t.Fatalf("home cell %v outside grid", c)
			}
		}
	}
}

func TestPlainServerRoundTrip(t *testing.T) {
	s := NewPlainServer(ttl)
	s.Update("A", geo.Pt(100, 100), sim.Second)
	loc, ok := s.Lookup("A", 2*sim.Second)
	if !ok || loc != geo.Pt(100, 100) {
		t.Fatalf("Lookup = %v %v", loc, ok)
	}
	if _, ok := s.Lookup("A", 60*sim.Second); ok {
		t.Fatal("stale record served")
	}
	if _, ok := s.Lookup("B", sim.Second); ok {
		t.Fatal("phantom record")
	}
}

func TestPlainServerExposesEverything(t *testing.T) {
	s := NewPlainServer(ttl)
	s.Update("A", geo.Pt(1, 1), 0)
	s.Update("B", geo.Pt(2, 2), 0)
	recs := s.Records(sim.Second)
	if len(recs) != 2 {
		t.Fatalf("Records = %d", len(recs))
	}
	// The privacy leak the paper targets: identity and location together.
	for _, r := range recs {
		if r.ID == "" {
			t.Fatal("record without identity")
		}
	}
}

func TestIndexDeterministicAndDistinct(t *testing.T) {
	keys := lsFixtures(t)
	i1 := ComputeIndex(keys["B"].Public(), "A", "B")
	i2 := ComputeIndex(keys["B"].Public(), "A", "B")
	if i1 != i2 {
		t.Fatal("index not deterministic — requester could never match")
	}
	if ComputeIndex(keys["B"].Public(), "C", "B") == i1 {
		t.Fatal("different updaters same index")
	}
	if ComputeIndex(keys["C"].Public(), "A", "C") == i1 {
		t.Fatal("different requesters same index")
	}
}

func TestSealOpenLocation(t *testing.T) {
	keys := lsFixtures(t)
	sealed, err := SealLocation(keys["B"].Public(), "A", geo.Pt(750, 150), 9*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	id, loc, ts, err := OpenLocation(keys["B"].Private, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if id != "A" || ts != 9*sim.Second || loc.Dist(geo.Pt(750, 150)) > 0.01 {
		t.Fatalf("opened = %v %v %v", id, loc, ts)
	}
	// Anyone else fails.
	if _, _, _, err := OpenLocation(keys["C"].Private, sealed); err == nil {
		t.Fatal("non-requester opened the sealed location")
	}
}

func TestALSEndToEndIndexed(t *testing.T) {
	keys := lsFixtures(t)
	ssa := testSSA()
	dir := dirOf(keys)
	up := &Updater{Self: *keys["A"], SSA: ssa, Directory: dir}
	req := &Requester{Self: keys["B"], SSA: ssa, Directory: dir}
	srv := NewServer(ttl)

	// A updates for anticipated requesters B and C.
	updates, err := up.BuildUpdates([]anoncrypto.Identity{"B", "C"}, geo.Pt(700, 100), 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	cells := ssa.HomeCells("A")
	if len(updates) != len(dedupCells(cells)) {
		t.Fatalf("updates span %d cells, want %d", len(updates), len(dedupCells(cells)))
	}
	for _, us := range updates {
		for _, u := range us {
			srv.Apply(u, 5*sim.Second)
		}
	}

	// B queries by index.
	q, cell, err := req.BuildQuery("A", geo.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if cell != cells[0] {
		t.Fatalf("query routed to %v, want %v", cell, cells[0])
	}
	rep, ok := srv.Answer(q, 6*sim.Second)
	if !ok {
		t.Fatal("server found no record for the index")
	}
	if len(rep.Sealed) != 1 {
		t.Fatalf("indexed reply carries %d records, want 1", len(rep.Sealed))
	}
	loc, ts, ok := req.OpenReply(rep, "A")
	if !ok {
		t.Fatal("requester could not open the reply")
	}
	if loc.Dist(geo.Pt(700, 100)) > 0.01 || ts != 5*sim.Second {
		t.Fatalf("wrong location: %v %v", loc, ts)
	}
}

func dedupCells(cells []geo.Cell) map[geo.Cell]bool {
	m := map[geo.Cell]bool{}
	for _, c := range cells {
		m[c] = true
	}
	return m
}

func TestALSServerLearnsNothing(t *testing.T) {
	keys := lsFixtures(t)
	ssa := testSSA()
	up := &Updater{Self: *keys["A"], SSA: ssa, Directory: dirOf(keys)}
	updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(123, 45), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range updates {
		for _, u := range us {
			// The stored blob must not contain the identity or the
			// location in the clear.
			blob := append([]byte{}, u.Sealed...)
			blob = append(blob, u.Index[:]...)
			if containsSub(blob, []byte("A")) && len("A") > 1 {
				t.Fatal("identity visible in stored record")
			}
			// A 1-byte needle is meaningless; instead check the server
			// cannot decrypt: only B's private key opens the blob.
			if _, _, _, err := OpenLocation(keys["C"].Private, u.Sealed); err == nil {
				t.Fatal("third party decrypted the stored location")
			}
		}
	}
}

func containsSub(h, n []byte) bool {
	if len(n) == 0 || len(n) > len(h) {
		return false
	}
	for i := 0; i+len(n) <= len(h); i++ {
		match := true
		for j := range n {
			if h[i+j] != n[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestALSUnanticipatedRequesterFails(t *testing.T) {
	// The paper's stated limitation: a requester A did not anticipate
	// cannot retrieve the location.
	keys := lsFixtures(t)
	ssa := testSSA()
	dir := dirOf(keys)
	up := &Updater{Self: *keys["A"], SSA: ssa, Directory: dir}
	srv := NewServer(ttl)
	updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range updates {
		for _, u := range us {
			srv.Apply(u, 0)
		}
	}
	stranger := &Requester{Self: keys["D"], SSA: ssa, Directory: dir}
	q, _, err := stranger.BuildQuery("A", geo.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Answer(q, sim.Second); ok {
		t.Fatal("server answered an unanticipated requester's index")
	}
}

func TestALSScanVariant(t *testing.T) {
	keys := lsFixtures(t)
	ssa := testSSA()
	dir := dirOf(keys)
	srv := NewServer(ttl)
	// Three updaters co-located on one server, all anticipating B.
	for _, id := range []anoncrypto.Identity{"A", "C", "D"} {
		up := &Updater{Self: *keys[id], SSA: ssa, Directory: dir}
		updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(10, 10), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, us := range updates {
			for _, u := range us {
				srv.Apply(u, 0)
			}
		}
	}
	req := &Requester{Self: keys["B"], SSA: ssa, Directory: dir}
	sq, _ := req.BuildScanQuery("A", geo.Pt(5, 5))
	rep := srv.AnswerScan(sq, sim.Second)
	if len(rep.Sealed) != 3 {
		t.Fatalf("scan reply has %d records, want 3", len(rep.Sealed))
	}
	loc, _, ok := req.OpenReply(rep, "A")
	if !ok || loc.Dist(geo.Pt(10, 10)) > 0.01 {
		t.Fatalf("scan retrieval failed: %v %v", loc, ok)
	}
	// Overhead of the alternative: trial decryptions and bigger replies.
	if req.DecryptAttempts < 1 {
		t.Fatal("no decrypt attempts counted")
	}
	if rep.ReplyBytes() <= UpdateBytes() {
		t.Fatalf("scan reply bytes = %d, should exceed one record", rep.ReplyBytes())
	}
}

func TestServerExpiry(t *testing.T) {
	keys := lsFixtures(t)
	srv := NewServer(10 * sim.Second)
	up := &Updater{Self: *keys["A"], SSA: testSSA(), Directory: dirOf(keys)}
	updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range updates {
		for _, u := range us {
			srv.Apply(u, 0)
		}
	}
	if srv.Len(5*sim.Second) == 0 {
		t.Fatal("record missing before expiry")
	}
	if srv.Len(20*sim.Second) != 0 {
		t.Fatal("record survived past TTL")
	}
	srv.Expire(20 * sim.Second)
	if len(srv.records) != 0 {
		t.Fatal("Expire left stale records")
	}
}

func TestMessageSizeModels(t *testing.T) {
	if UpdateBytes() != 129 {
		t.Fatalf("UpdateBytes = %d", UpdateBytes())
	}
	if QueryBytes() <= ScanQueryBytes() {
		t.Fatal("indexed query should be larger than scan query")
	}
	rep := &Reply{Sealed: []SealedLocation{make([]byte, 64), make([]byte, 64)}}
	if rep.ReplyBytes() != 1+8+128 {
		t.Fatalf("ReplyBytes = %d", rep.ReplyBytes())
	}
	if PlainUpdateBytes() >= UpdateBytes() {
		t.Fatal("plain update should be smaller than sealed update")
	}
	if PlainQueryBytes() <= 0 || PlainReplyBytes() <= 0 {
		t.Fatal("size models must be positive")
	}
}

func TestUpdaterMissingKeyFails(t *testing.T) {
	keys := lsFixtures(t)
	up := &Updater{Self: *keys["A"], SSA: testSSA(), Directory: dirOf(keys)}
	if _, err := up.BuildUpdates([]anoncrypto.Identity{"nobody"}, geo.Pt(0, 0), 0); err == nil {
		t.Fatal("update for unknown requester succeeded")
	}
	req := &Requester{Self: keys["B"], SSA: testSSA(), Directory: dirOf(keys)}
	if _, _, err := req.BuildQuery("nobody", geo.Pt(0, 0)); err == nil {
		t.Fatal("query for unknown target succeeded")
	}
}
