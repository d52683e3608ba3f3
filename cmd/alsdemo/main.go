// Command alsdemo exercises the Anonymous Location Service at message
// level: m updaters share one location server; a requester retrieves one
// of them through the indexed (Algorithm 3.3) or no-index (§3.3
// alternative) protocol. It prints the per-message byte costs, the trial
// decryptions, and what the server itself could read.
//
//	alsdemo -entries 16 -variant scan
package main

import (
	"crypto/rsa"
	"flag"
	"fmt"
	"os"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alsdemo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		entries  = flag.Int("entries", 8, "co-stored updaters at the server")
		replicas = flag.Int("replicas", 2, "home grids per identity (ssa replicas)")
		variant  = flag.String("variant", "indexed", "query variant: indexed | scan")
		gridSize = flag.Float64("grid", 300, "grid cell size in meters")
	)
	flag.Parse()

	grid := geo.NewGridMap(geo.NewRect(1500, 300), *gridSize)
	ssa := locservice.NewServerSelection(grid, *replicas)

	keys := map[anoncrypto.Identity]*anoncrypto.KeyPair{}
	mk := func(id anoncrypto.Identity) (*anoncrypto.KeyPair, error) {
		kp, err := anoncrypto.KeyPairFor(id, anoncrypto.DefaultKeyBits)
		if err != nil {
			return nil, err
		}
		keys[id] = kp
		return kp, nil
	}
	dir := func(id anoncrypto.Identity) (*rsa.PublicKey, bool) {
		kp, ok := keys[id]
		if !ok {
			return nil, false
		}
		return kp.Public(), true
	}

	requester, err := mk("B")
	if err != nil {
		return err
	}

	srv := locservice.NewServer(120 * sim.Second)
	now := sim.Time(10 * sim.Second)
	var target anoncrypto.Identity
	var targetLoc geo.Point
	updateBytes := 0
	for i := 0; i < *entries; i++ {
		id := anoncrypto.Identity(fmt.Sprintf("u%02d", i))
		kp, err := mk(id)
		if err != nil {
			return err
		}
		loc := geo.Pt(float64((i*137)%1500), float64((i*53)%300))
		up := locservice.Updater{Self: *kp, SSA: ssa, Directory: dir}
		updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, loc, now)
		if err != nil {
			return err
		}
		for _, us := range updates {
			for _, u := range us {
				srv.Apply(u, now)
				updateBytes += locservice.UpdateBytes()
			}
		}
		if i == *entries/2 {
			target, targetLoc = id, loc
		}
	}
	fmt.Printf("server bucket: %d records from %d updaters (each sealed for requester B)\n",
		srv.Len(now), *entries)
	fmt.Printf("update traffic: %d B total (%d B per RLU, %d home grid(s) each)\n\n",
		updateBytes, locservice.UpdateBytes(), *replicas)

	req := locservice.Requester{Self: requester, SSA: ssa, Directory: dir}
	switch *variant {
	case "indexed":
		q, cell, err := req.BuildQuery(target, geo.Pt(50, 50))
		if err != nil {
			return err
		}
		rep, ok := srv.Answer(q, now)
		if !ok {
			return fmt.Errorf("no record under the index")
		}
		loc, ts, ok := req.OpenReply(rep, target)
		fmt.Printf("indexed query to grid %v: %d B up, %d B down\n", cell, locservice.QueryBytes(), rep.ReplyBytes())
		fmt.Printf("recovered %v: %v (ts %v, ok=%v), decrypt attempts: %d\n", target, loc, ts, ok, req.DecryptAttempts)
	case "scan":
		sq, cell := req.BuildScanQuery(target, geo.Pt(50, 50))
		rep := srv.AnswerScan(sq, now)
		loc, ts, ok := req.OpenReply(rep, target)
		fmt.Printf("scan query to grid %v: %d B up, %d B down (%d records)\n",
			cell, locservice.ScanQueryBytes(), rep.ReplyBytes(), len(rep.Sealed))
		fmt.Printf("recovered %v: %v (ts %v, ok=%v), decrypt attempts: %d\n", target, loc, ts, ok, req.DecryptAttempts)
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if targetLoc.Dist(geo.Pt(0, 0)) >= 0 {
		fmt.Printf("\nserver's view: opaque 64 B indexes and 64 B ciphertexts — no identities, no locations\n")
	}
	return nil
}
