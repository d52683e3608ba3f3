package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"anongeo/internal/fault"
	"anongeo/internal/geo"
	"anongeo/internal/lbs"
	"anongeo/internal/neighbor"
)

// resultDigests pins every cell of digestCells: the SHA-256 of the
// cell's result encoded with json.Marshal, the encoding perfbench
// digests. A run is a pure function of its config, so equal digests
// mean bit-for-bit equal results; this table is the regression
// reference for any change to the simulator's hot paths.
//
// Every core cell was checked, when the table was pinned, on the
// brute-force radio, the binary-heap scheduler and (for cells without a
// fault plan) the pre-plan fault wiring as well as on the default path;
// all agreed. Those implementations are gone; matching the table is
// matching them. The ls cells joined later, once the in-band location
// service sent its geocasts in a run-determined order.
//
// When an intended change moves results, the failing test prints the
// full recomputed table; paste it here after checking that the moved
// cells are the ones the change should move.
//
// The digests are pinned for GOARCH=amd64: elsewhere the compiler may
// fuse multiply-adds, which changes floating-point results.
var resultDigests = map[string]string{
	"fig1/GPSR-Greedy/N50/seed1":   "8097c4397d1231e2abae653009385839bdbf0313508500716deba67e4d7cb427",
	"fig1/GPSR-Greedy/N50/seed2":   "771934274b59668612ec4968274b450400880499b0944898ded93ddb24e7048c",
	"fig1/GPSR-Greedy/N100/seed1":  "59a9db619c44da84e9eb2fb30907caeb126eb01eca512ae08857552b88e71c88",
	"fig1/GPSR-Greedy/N100/seed2":  "ed7c99c2209828e55ef652f18177111f1e5763336a90fb538447019f92b57b12",
	"fig1/GPSR-Greedy/N150/seed1":  "9c6bf3cf1cad8ac4692385e4383a93c683553d16d169719c24162f46ab630e6d",
	"fig1/GPSR-Greedy/N150/seed2":  "ecfcfcec943ea3ac495f7f329a904172212f6ef1faa027f2b3968539ed5878d1",
	"fig1/AGFW/N50/seed1":          "5d0ab342313ab1f46540a87977ee6462084ffbe38fc8933829acf9124f4bc428",
	"fig1/AGFW/N50/seed2":          "8854061163f09610abfb5ce371cf5e18912bbfb993a12225c1a38ceb99290a53",
	"fig1/AGFW/N100/seed1":         "1f1f5a1c8e52c232f6d6ee16ec146dedd13f70ca46c16b19e74ba2297ba3f0eb",
	"fig1/AGFW/N100/seed2":         "d710a84b4074eeffc15ea73ff4109e82fdf312ead3ff5e181d53b312a0c37c4e",
	"fig1/AGFW/N150/seed1":         "cb154b661f224d26a5d159110eb6091d84412a434098fbfa156f74f5bd3491f4",
	"fig1/AGFW/N150/seed2":         "f8b624336091832a22365e22562eefa41c7bec174e570dd84ed1d666159ee908",
	"fig1/AGFW-noACK/N50/seed1":    "6a33c4a75892a29b339a4f2a4221e8615323ef2b1c9cc019ca0929d735e4d3b0",
	"fig1/AGFW-noACK/N50/seed2":    "a66996eccc15836594713340badcd8e0754557b6e49520c88d1b239f49cc5fb5",
	"fig1/AGFW-noACK/N100/seed1":   "077a44828a29e361520183aff1b4311041cb4552a4ebe954a0c738e43649a29a",
	"fig1/AGFW-noACK/N100/seed2":   "b7043737fa82cc648bc50c951590631c8fcfe674792488ffa87d35f22d0c1676",
	"fig1/AGFW-noACK/N150/seed1":   "f47cf4350f11bc1904879129dd24007b8fa14b67b1257b6009a8ad45ad13e3e6",
	"fig1/AGFW-noACK/N150/seed2":   "63c4c4720c4ba9165294f23340863e5d0d45ec930a3f8490893f191174279198",
	"parity/GPSR-Greedy/50/seed1":  "637fe1a1218126be686993438bbbf9c803cecae7498b3ba39475de3c4b13f4ea",
	"parity/GPSR-Greedy/50/seed2":  "c11e725a574e9568357af5dea15ec97ed3af865f35094d045ab7b57e8efb979a",
	"parity/GPSR-Greedy/150/seed1": "9e633a6d73fdaf136befd1a88f23ff64655612035c3484c5127c39732238eb07",
	"parity/GPSR-Greedy/150/seed2": "8dd384da4aea01d37de51d73163474ecfa1104edfeddc66494d03d2947afb8aa",
	"parity/AGFW/50/seed1":         "4a9f2376a71a365a665a9c75941e7899de49f26a14491352980267717924c24b",
	"parity/AGFW/50/seed2":         "30f5ec9466127e052d4e8ead133182575988a1c21cea1890eda81705a5c572ef",
	"parity/AGFW/150/seed1":        "2a2ad7de068beb20cbdccb5a69b4beed1f3ca93d1e71fed820c70390c0356c74",
	"parity/AGFW/150/seed2":        "df49f246082c563fd4ad2ccfad498b29b7b242b267364d9cf809e7ae755ec662",
	"legacy/agfw-loss":             "1641a09a052f54c8f432223794646bc02cee2272d65cb929d98495a4d0f7c2be",
	"legacy/gpsr-churn":            "d8b6b44ba99edf91437bb9c3ed3833d285da8499eaa5f4c80541bcb6a1802e91",
	"legacy/noack-loss-churn":      "a0f90bd6159937006eb17395c949be0e060246ed416e2de6461bd01ed1a003ee",
	"policy/closest":               "79a4dce5f41c19efec51fde97b6cdb2020faafbc20e0ec3c2dc919904d7096c0",
	"policy/freshest":              "0939a9885330aa48090424ec4d6fdf0b7de27ad3059ce026ce9f285f7581a850",
	"policy/weighted":              "cd1a9c041bda2e2a552e2a600b9f7959b0191e2eaddc2380e10269b56b6aceb5",
	"chaos/greyhole/GPSR-Greedy":   "8ac51fe56ac6001e8313e4fecf1799c2d542be2ed1b3baa5a2f377234ee1d168",
	"chaos/greyhole/AGFW":          "601339302acd404021c96ad04af851a23df4cc90bc609fb42f33caf463c89377",
	"chaos/greyhole/AGFW-noACK":    "cb279c86cb68f571eef583e0e6d47e80d684919d5020e86c495e5686ad2b33a8",
	"chaos/blackhole/GPSR-Greedy":  "9e03c72ef835780c2a77f73bcd4165bf11b5613b6b7a16b5d27dfb161c649197",
	"chaos/blackhole/AGFW":         "9ee16af0d5555291d6ac7c83a05850fe47a43839da3935c217271a1940d519f0",
	"chaos/blackhole/AGFW-noACK":   "e97997b2be65f8b81440a0a323375ccbf91d097309eb20ccf0a0dda7fe86a035",
	"chaos/burst/GPSR-Greedy":      "6c7891dd0d678f65ee3e56520c63fb86db0ea3725ea0a81095835f68e2b05027",
	"chaos/burst/AGFW":             "bf81f762601d2dfae5de0dc1d3158da3c52f0c67d4223c1eca7b05806202c2dd",
	"chaos/burst/AGFW-noACK":       "5fbc292447724222c8856d937d352e5df9157007e60bdac287852fb922eafd75",
	"chaos/jam/GPSR-Greedy":        "9b3dd40e56f927fbdae7e8061a23386e9ddaed2fe7ee05b2e91bc4cda8ba5326",
	"chaos/jam/AGFW":               "effe189421cd2813147439d972ec0ce337662af2e484f5054c075bd4b72d1df1",
	"chaos/jam/AGFW-noACK":         "55a87075b80676b3ff2edee898437ccb0ddcd2308a845b4ee226cdfc72afd330",
	"chaos/sigma/GPSR-Greedy":      "5f08c689f65440ccdfe9bf71e960ab8114db13fed12fe5c61fbd02cd1d88fb4f",
	"chaos/sigma/AGFW":             "50bfe8877f862612c51631625bb4cb515f712f8dfe6462d10cf0666425b6db01",
	"chaos/sigma/AGFW-noACK":       "585d368c7cd77e8c45e994307b5e4428b933eb46081982ca5beb8d48a49a800f",
	"defended/bogus/GPSR-Greedy":   "ae785c264e5c0bb25a5dec50c9dd07437f758adda894cdf0e71ea96ff90e32ac",
	"defended/flood/GPSR-Greedy":   "3342ea17938394655d306ebbe00eef95b150b661192b7291875489dffad435ab",
	"defended/bogus/AGFW":          "f987dbfb5999af681c5edaca3141fb480e75f7c442cf8b62ef9abf735367020d",
	"defended/ackspoof/AGFW":       "645ede2557e2f87ba57bfbd3bdbe57b71e41e45437591af6a5844fdaea8d734f",
	"defended/flood/AGFW":          "b95a826b0fe8d21013ed9a839aea24e6fbf565349ac689cf5024912ecec34e9a",
	"ls/ALS":                       "4157665316e823d6e47b54dfd5a4e1e38958796532df24dcdcbfeb893ddd0d88",
	"ls/DLM":                       "c417777f466861da7f4998f7f8bfd13a9e62b50f76c04aced3ed9c4a0d788627",
	"lbs/paperals":                 "1f1164cb9ee33d1196751983aab6a2b4abe4f6cd87fe987c8839223276c16bbf",
	"lbs/kanon":                    "334f004e3062da1fd07a899bf7186da2e630fb48cfab53fc3dca025827bf08bf",
	"lbs/gridcloak":                "b0737dfd2c76f5d719966a7e9f1d656799f49d20d3f34f4ca20915bbb7df6147",
	"lbs/geoind":                   "ea4648fed2ebd794c689abc2831f15e5916e7f26a3ba95b06c5ba8608d510d22",
}

// digestCell is one pinned run: a core scenario, or an LBS cell when
// lbs is set.
type digestCell struct {
	label string
	// short marks the cells the -short subset runs: at least one per
	// family.
	short bool
	core  Config
	lbs   *lbs.Config
}

// digestCells is the pinned matrix, in table order:
//
//   - fig1: the paper's Figure 1 grid at 15 sim-s (GPSR, AGFW,
//     AGFW-noACK × N 50/100/150 × seeds 1, 2);
//   - parity: the 60 s Figure 1 cells the spatial-index and scheduler
//     rewrites were proven on (TestSpatialIndexParity,
//     TestSchedulerParity);
//   - legacy: the LossRate/ChurnFailures knob cells the fault-plan
//     rewrite was proven on (TestLegacyFaultKnobsParity);
//   - policy: AGFW under each ANT next-hop policy;
//   - chaos: one cell per fault axis, each protocol;
//   - defended: perfbench's attack × protocol set with TrustRelay, and
//     Revocation and AuthAck on AGFW;
//   - ls: the in-band location service, ALS and plain DLM (perfbench's
//     canary shape);
//   - lbs: one cell per LBS backend.
func digestCells() []digestCell {
	var cells []digestCell
	add := func(label string, short bool, cfg Config) {
		cells = append(cells, digestCell{label: label, short: short, core: cfg})
	}

	for _, proto := range []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck} {
		for _, nodes := range []int{50, 100, 150} {
			for _, seed := range []int64{1, 2} {
				cfg := DefaultConfig()
				cfg.Protocol = proto
				cfg.Nodes = nodes
				cfg.Seed = seed
				cfg.Duration = 15 * time.Second
				add(fmt.Sprintf("fig1/%v/N%d/seed%d", proto, nodes, seed),
					proto == ProtoAGFW && nodes == 50 && seed == 1, cfg)
			}
		}
	}

	for _, proto := range []Protocol{ProtoGPSR, ProtoAGFW} {
		for _, nodes := range []int{50, 150} {
			for _, seed := range []int64{1, 2} {
				add(fmt.Sprintf("parity/%v/%d/seed%d", proto, nodes, seed),
					nodes == 50 && seed == 1, fig1Config(proto, nodes, seed))
			}
		}
	}

	for _, c := range []struct {
		name   string
		proto  Protocol
		mutate func(*Config)
	}{
		{"agfw-loss", ProtoAGFW, func(c *Config) { c.LossRate = 0.15 }},
		{"gpsr-churn", ProtoGPSR, func(c *Config) { c.ChurnFailures = 10; c.ChurnDownFor = 20 * time.Second }},
		{"noack-loss-churn", ProtoAGFWNoAck, func(c *Config) {
			c.LossRate = 0.1
			c.ChurnFailures = 5
		}},
	} {
		cfg := fig1Config(c.proto, 50, 1)
		c.mutate(&cfg)
		add("legacy/"+c.name, c.name == "agfw-loss", cfg)
	}

	for _, p := range []struct {
		name   string
		policy neighbor.Policy
	}{{"closest", neighbor.PolicyClosest}, {"freshest", neighbor.PolicyFreshest}, {"weighted", neighbor.PolicyWeighted}} {
		cfg := DefaultConfig()
		cfg.Nodes = 100
		cfg.Duration = 30 * time.Second
		cfg.Policy = p.policy
		add("policy/"+p.name, p.policy == neighbor.PolicyClosest, cfg)
	}

	jamRegion := geo.Rect{Min: geo.Pt(500, 0), Max: geo.Pt(1000, 300)}
	for _, ax := range []struct {
		name  string
		entry fault.Entry
	}{
		{"greyhole", fault.Entry{Kind: fault.KindGreyhole, Fraction: 0.2, P: 0.5}},
		{"blackhole", fault.Entry{Kind: fault.KindBlackhole, Fraction: 0.1}},
		{"burst", fault.Entry{Kind: fault.KindGilbertElliott, PGood: 0.01, PBad: 0.6,
			MeanGood: 5 * time.Second, MeanBad: 500 * time.Millisecond}},
		{"jam", fault.Entry{Kind: fault.KindJam, Region: &jamRegion, From: 15 * time.Second, Until: 25 * time.Second}},
		{"sigma", fault.Entry{Kind: fault.KindPositionError, Fraction: 1, Sigma: 25}},
	} {
		for _, proto := range []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck} {
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Duration = 30 * time.Second
			cfg.PacketInterval = 300 * time.Millisecond
			cfg.Faults = &fault.Plan{Entries: []fault.Entry{ax.entry}}
			add(fmt.Sprintf("chaos/%s/%v", ax.name, proto), ax.name == "greyhole" && proto == ProtoAGFW, cfg)
		}
	}

	channel := fault.Entry{Kind: fault.KindGilbertElliott, PGood: 0.01, PBad: 0.3,
		MeanGood: 5 * time.Second, MeanBad: 500 * time.Millisecond}
	for _, a := range []struct {
		name  string
		proto Protocol
		entry fault.Entry
	}{
		{"bogus", ProtoGPSR, fault.Entry{Kind: fault.KindBogusBeacon, Fraction: 0.2, P: 1}},
		{"flood", ProtoGPSR, fault.Entry{Kind: fault.KindFlood, Fraction: 0.2, Rate: 5}},
		{"bogus", ProtoAGFW, fault.Entry{Kind: fault.KindBogusBeacon, Fraction: 0.2, P: 1}},
		{"ackspoof", ProtoAGFW, fault.Entry{Kind: fault.KindAckSpoof, Fraction: 0.2, P: 1}},
		{"flood", ProtoAGFW, fault.Entry{Kind: fault.KindFlood, Fraction: 0.2, Rate: 5}},
	} {
		cfg := DefaultConfig()
		cfg.Protocol = a.proto
		cfg.Duration = 15 * time.Second
		cfg.PacketInterval = 300 * time.Millisecond
		cfg.TrustRelay = true
		if a.proto == ProtoAGFW {
			rc := neighbor.DefaultRevocationConfig()
			cfg.Revocation = &rc
			cfg.AuthAck = true
		}
		cfg.Faults = &fault.Plan{Entries: []fault.Entry{channel, a.entry}}
		add(fmt.Sprintf("defended/%s/%v", a.name, a.proto), a.name == "bogus" && a.proto == ProtoAGFW, cfg)
	}

	for _, mode := range []LocationServiceMode{LSALS, LSPlainDLM} {
		add("ls/"+mode.String(), mode == LSALS, lsDigestConfig(mode))
	}

	for _, b := range lbs.Backends() {
		cfg := lbs.DefaultConfig()
		cfg.Clients = 40
		cfg.Queries = 2000
		cfg.Duration = 60 * time.Second
		cfg.Backend = b
		cfg.K, cfg.GridLevel, cfg.Epsilon, cfg.KeyBits = 0, 0, 0, 0
		switch b {
		case lbs.BackendKAnon:
			cfg.K = 5
		case lbs.BackendGridCloak:
			cfg.GridLevel = 5
		case lbs.BackendGeoInd:
			cfg.Epsilon = 0.02
		case lbs.BackendPaperALS:
			cfg.KeyBits = 512
		}
		cells = append(cells, digestCell{label: "lbs/" + string(b), short: b == lbs.BackendKAnon, lbs: &cfg})
	}
	return cells
}

// lsDigestConfig is a 40-node, 40 s cell on the in-band location
// service in mode.
func lsDigestConfig(mode LocationServiceMode) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 40
	cfg.Duration = 40 * time.Second
	cfg.LocationService = mode
	return cfg
}

// digestOf runs cfg and returns its result digest.
func digestOf(cfg Config) (string, error) {
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	if res.Summary.Sent == 0 {
		return "", fmt.Errorf("no traffic generated; the digest pins nothing")
	}
	return digestJSON(res), nil
}

// digestJSON is the SHA-256 of v's canonical JSON.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // results always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digest runs the cell.
func (c digestCell) digest() (string, error) {
	if c.lbs != nil {
		res, err := lbs.Run(*c.lbs)
		if err != nil {
			return "", err
		}
		return digestJSON(res), nil
	}
	return digestOf(c.core)
}

// digestMemo caches digests by cell label within one test binary run:
// results are deterministic, so a cell checked by two tests runs once.
var digestMemo = map[string]string{}

// cellDigest returns the cell's digest, running it at most once.
func cellDigest(t *testing.T, c digestCell) string {
	t.Helper()
	if d, ok := digestMemo[c.label]; ok {
		return d
	}
	d, err := c.digest()
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	digestMemo[c.label] = d
	return d
}

// checkDigests runs every cell whose label starts with prefix (all
// cells, for ""), as a subtest named by the rest of the label, and
// requires each to match the table. On any mismatch it prints the full
// recomputed table.
func checkDigests(t *testing.T, prefix string) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are pinned for amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range digestCells() {
		name, ok := strings.CutPrefix(c.label, prefix)
		if !ok || (testing.Short() && !c.short) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			got := cellDigest(t, c)
			if want := resultDigests[c.label]; got != want {
				t.Errorf("%s: result digest %.16s, table has %.16s", c.label, got, want)
			}
		})
	}
	if t.Failed() {
		printDigestTable(t)
	}
}

// printDigestTable logs the whole table recomputed, as a Go literal.
func printDigestTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("recomputed table:\nvar resultDigests = map[string]string{\n")
	for _, c := range digestCells() {
		d, ok := digestMemo[c.label]
		var err error
		if !ok {
			d, err = c.digest()
		}
		if err != nil {
			fmt.Fprintf(&b, "\t// %s: %v\n", c.label, err)
			continue
		}
		fmt.Fprintf(&b, "\t%q: %q,\n", c.label, d)
	}
	b.WriteString("}\n")
	t.Log(b.String())
}

// TestResultDigests checks every pinned cell against the table.
func TestResultDigests(t *testing.T) {
	checkDigests(t, "")
}

// TestDigestTableMatchesCells keeps the table and the matrix in step:
// no stale entries, no unpinned cells.
func TestDigestTableMatchesCells(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range digestCells() {
		if seen[c.label] {
			t.Errorf("duplicate cell label %q", c.label)
		}
		seen[c.label] = true
		if _, ok := resultDigests[c.label]; !ok {
			t.Errorf("cell %q has no pinned digest", c.label)
		}
	}
	for label := range resultDigests {
		if !seen[label] {
			t.Errorf("table entry %q names no cell", label)
		}
	}
}
