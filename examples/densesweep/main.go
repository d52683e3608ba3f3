// Density sweep: a reduced-scale rerun of the paper's Figure 1 — the
// three protocol curves (GPSR-Greedy, AGFW, AGFW-noACK) across node
// densities — printed as a table. The full-scale 900 s version lives in
// cmd/figures.
//
//	go run ./examples/densesweep
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"anongeo"
)

func main() {
	cfg := anongeo.DefaultConfig()
	cfg.Duration = 90 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond

	fmt.Println("Figure 1 at reduced scale (90 s per cell; see cmd/figures for 900 s):")
	pts, err := anongeo.DensitySweepOpts(cfg, []int{50, 100, 150},
		[]anongeo.Protocol{anongeo.ProtoGPSR, anongeo.ProtoAGFW, anongeo.ProtoAGFWNoAck}, anongeo.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := anongeo.WriteSweepTable(os.Stdout, pts); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nWhat to look for (the paper's claims):")
	fmt.Println("  1a. AGFW-noACK delivers least and worsens with density (broadcast")
	fmt.Println("      collisions, no retransmission); AGFW tracks GPSR-Greedy closely.")
	fmt.Println("  1b. latency is comparable at modest density; at high density GPSR's")
	fmt.Println("      RTS/CTS handshakes back off and retry, and its latency climbs")
	fmt.Println("      while AGFW's broadcasts stay flat.")
}
