package core

import (
	"context"
	"crypto/rsa"
	"fmt"
	"strconv"
	"time"

	"anongeo/internal/adversary"
	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/mac"
	"anongeo/internal/metrics"
	"anongeo/internal/mobility"
	"anongeo/internal/neighbor"
	"anongeo/internal/radio"
	"anongeo/internal/routing/agfw"
	"anongeo/internal/routing/gpsr"
	"anongeo/internal/sim"
	"anongeo/internal/traffic"
)

// Node is one simulated station with its full protocol stack.
type Node struct {
	Index int
	ID    anoncrypto.Identity
	Mob   mobility.Model
	MAC   *mac.DCF
	GPSR  *gpsr.Router // nil unless the scenario runs GPSR
	AGFW  *agfw.Router // nil unless the scenario runs AGFW
	Keys  *anoncrypto.KeyPair

	// router is whichever of GPSR and AGFW the node runs.
	router  router
	overlay *lsOverlay
	// posNoise, when set by a fault-plan position-error entry, distorts
	// the positions this node advertises (location-service updates; the
	// routers hold the same closure for beacons).
	posNoise func(geo.Point) geo.Point
}

// router is the surface both routing stacks share: origination, the
// geocast primitive the location overlay rides on, and the fault-plan
// controls. A node holds its stack behind it, so no caller switches on
// protocol.
type router interface {
	geoSender
	Originate(dst anoncrypto.Identity, dstLoc geo.Point, payloadBytes int, pktID uint64, record bool)
	SetRelayDrop(p float64)
	SetMute(muted bool)
	SetBeaconNoise(f func(geo.Point) geo.Point)
	SetForgedBeacon(f func(geo.Point) geo.Point)
	SendJunkHello(nonce uint64, loc geo.Point, bytes int)
}

// Pos reports the node's true current position.
func (n *Node) Pos(now sim.Time) geo.Point { return n.Mob.PositionAt(now) }

// AdvertisedPos is the position the node claims to the outside world —
// the true position unless a fault plan injects GPS error.
func (n *Node) AdvertisedPos(now sim.Time) geo.Point {
	p := n.Mob.PositionAt(now)
	if n.posNoise != nil {
		p = n.posNoise(p)
	}
	return p
}

// Network is a fully assembled scenario, exposed so examples and tools
// can poke at individual nodes between runs.
type Network struct {
	Cfg       Config
	Eng       *sim.Engine
	Channel   *radio.Channel
	Nodes     []*Node
	Collector *metrics.Collector
	Gen       *traffic.Generator
	Sniffer   *adversary.Sniffer
	// Revocation is the run's shared escrow authority registry, nil
	// unless Config.Revocation armed it.
	Revocation *neighbor.RevocationRegistry

	byID   map[anoncrypto.Identity]*Node
	flows  []traffic.Flow
	ssa    locservice.ServerSelection
	ctrlID uint64
}

// Result aggregates one run's measurements.
type Result struct {
	Protocol Protocol
	Nodes    int
	Summary  metrics.Summary
	Channel  radio.Stats
	MAC      mac.Stats
	AGFW     agfw.Stats
	GPSR     gpsr.Stats
	// Revocation carries the escrow registry's audit terms (zero value
	// when Config.Revocation is off).
	Revocation neighbor.RevocationStats
	// Harvest is the global eavesdropper's take, when WithSniffer.
	Harvest *adversary.Harvest
}

// NodeID formats the canonical identity of node index i.
func NodeID(i int) anoncrypto.Identity {
	return anoncrypto.Identity("n" + strconv.Itoa(i))
}

// Build assembles a network per cfg: engine, channel, nodes with mobility
// and protocol stacks, the CBR generator, and optionally a sniffer.
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	eng.MaxEvents = cfg.MaxEvents
	if eng.MaxEvents == 0 {
		eng.MaxEvents = 2_000_000_000
	}
	ch := radio.NewChannel(eng, cfg.RadioRange)
	cs := cfg.CSRange
	if cs == 0 {
		cs = 2.2 * cfg.RadioRange
	}
	ch.SetCarrierSenseRange(cs)
	maxSpeed := cfg.MaxSpeed
	if cfg.Static {
		maxSpeed = 0
	}
	ch.EnableSpatialIndex(cfg.Area, maxSpeed)
	col := metrics.NewCollector()
	n := &Network{
		Cfg:       cfg,
		Eng:       eng,
		Channel:   ch,
		Collector: col,
		byID:      make(map[anoncrypto.Identity]*Node, cfg.Nodes),
	}

	macParams := mac.DefaultParams()
	if cfg.MAC != nil {
		macParams = *cfg.MAC
	}

	if cfg.LocationService == 0 {
		cfg.LocationService = LSOracle
		n.Cfg.LocationService = LSOracle
	}
	gridSize := cfg.LSGridSize
	if gridSize <= 0 {
		gridSize = 300
	}
	replicas := cfg.LSReplicas
	if replicas <= 0 {
		replicas = 2
	}
	n.ssa = locservice.NewServerSelection(geo.NewGridMap(cfg.Area, gridSize), replicas)

	// Key material when genuine trapdoors are requested, and always for
	// the in-band ALS (its updates and queries are real ciphertext).
	var keys map[anoncrypto.Identity]*anoncrypto.KeyPair
	if cfg.RealCrypto || cfg.LocationService == LSALS {
		keys = make(map[anoncrypto.Identity]*anoncrypto.KeyPair, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			kp, err := anoncrypto.KeyPairFor(NodeID(i), anoncrypto.DefaultKeyBits)
			if err != nil {
				return nil, fmt.Errorf("core: node %d keygen: %w", i, err)
			}
			keys[NodeID(i)] = kp
		}
	}
	dir := agfw.CertDirectory(func(id anoncrypto.Identity) (*rsa.PublicKey, bool) {
		kp, ok := keys[id]
		if !ok {
			return nil, false
		}
		return kp.Public(), true
	})

	// One shared beacon log across all GPSR routers: broadcast beacon
	// content is identical at every receiver, so it is stored once.
	beaconLog := neighbor.NewBeaconLog()

	// The escrow authority set is per-run infrastructure shared by every
	// router: dealt from the scenario seed, so identical configs yield
	// identical registries at any sweep parallelism.
	if rcfg := cfg.revocationConfig(); rcfg != nil {
		reg, err := neighbor.NewRevocationRegistry(*rcfg, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: Revocation: %w", err)
		}
		n.Revocation = reg
	}

	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(i)
		mobRng := eng.NewStream()
		start := mobility.RandomStart(cfg.Area, mobRng)
		var mob mobility.Model
		if cfg.Static {
			mob = mobility.Static{At: start}
		} else {
			wcfg := mobility.WaypointConfig{
				Bounds:   cfg.Area,
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				Pause:    sim.Time(cfg.Pause),
				Start:    start,
			}
			mob = mobility.NewWaypoint(wcfg, mobRng)
		}

		node := &Node{Index: i, ID: id, Mob: mob}
		if keys != nil {
			node.Keys = keys[id]
		}

		switch cfg.Protocol {
		case ProtoGPSR:
			d := mac.New(eng, ch, mob, macParams, mac.AddrFromUint64(uint64(i+1)), nil, eng.NewStream())
			gcfg := gpsr.DefaultConfig()
			gcfg.EnablePerimeter = cfg.Perimeter
			gcfg.Trace = cfg.Trace
			if cfg.GPSROverride != nil {
				gcfg = *cfg.GPSROverride
			}
			gcfg.BeaconLog = beaconLog
			gcfg.TrustConfig = cfg.trustConfig()
			node.MAC = d
			node.GPSR = gpsr.New(eng, d, id, d.Iface().Pos, gcfg, col, nil, eng.NewStream())
			node.GPSR.Start()
			node.router = node.GPSR

		case ProtoAGFW, ProtoAGFWNoAck:
			addr := mac.Broadcast
			if cfg.ExposeSenderMAC {
				addr = mac.AddrFromUint64(uint64(i + 1))
			}
			d := mac.New(eng, ch, mob, macParams, addr, nil, eng.NewStream())
			acfg := agfw.DefaultConfig()
			acfg.Trace = cfg.Trace
			acfg.RadioRange = cfg.RadioRange
			acfg.MaxSpeed = cfg.MaxSpeed
			acfg.ReachFilter = cfg.ReachFilter
			if cfg.Policy != 0 {
				acfg.Policy = cfg.Policy
			}
			if cfg.Protocol == ProtoAGFWNoAck {
				acfg.UseAck = false
			}
			if cfg.AuthHelloK > 0 {
				acfg.HelloBytes = neighbor.EstimateAuthHelloBytes(cfg.AuthHelloK, anoncrypto.DefaultKeyBits, false)
				// §5.1's measured costs: ~0.5 ms per public-key op and
				// ~8.5 ms per private-key op on the paper's hardware.
				acfg.HelloSignDelay = 8500*time.Microsecond + time.Duration(cfg.AuthHelloK)*500*time.Microsecond
				acfg.HelloVerifyDelay = time.Duration(cfg.AuthHelloK+1) * 500 * time.Microsecond
			}
			if cfg.AGFWOverride != nil {
				acfg = *cfg.AGFWOverride
			}
			acfg.TrustConfig = cfg.trustConfig()
			acfg.AuthAck = cfg.AuthAck
			acfg.Revocation = n.Revocation
			if n.Revocation != nil {
				// Every hello carries its pseudonym's CA-blessed escrow tag.
				acfg.HelloBytes += anoncrypto.EscrowTagBytes
			}
			var scheme agfw.TrapdoorScheme
			if cfg.RealCrypto {
				scheme = &agfw.RealScheme{Self: keys[id], Dir: dir}
			} else {
				scheme = agfw.NewModeledScheme(id)
			}
			node.MAC = d
			node.AGFW = agfw.New(eng, d, id, d.Iface().Pos, scheme, acfg, col, nil, eng.NewStream())
			node.AGFW.Start()
			node.router = node.AGFW
		}

		if cfg.LocationService != LSOracle {
			node.overlay = newLSOverlay(n, node, node.router)
			node.overlay.start()
		}

		n.Nodes = append(n.Nodes, node)
		n.byID[id] = node
	}

	if err := n.installFaults(); err != nil {
		return nil, err
	}

	if cfg.WithSniffer {
		n.Sniffer = adversary.NewSniffer(eng, ch, cfg.Area.Center(), 1e12)
	}

	flows, err := traffic.PickFlows(cfg.Nodes, cfg.Senders, cfg.Flows, eng.NewStream())
	if err != nil {
		return nil, err
	}
	n.flows = flows
	tcfg := traffic.Config{
		Flows:        flows,
		Interval:     cfg.PacketInterval,
		Jitter:       0.1,
		PayloadBytes: cfg.PayloadBytes,
		Start:        sim.Time(cfg.Warmup),
		Stop:         sim.Time(cfg.Duration),
	}
	gen, err := traffic.NewGenerator(eng, tcfg, n.sendOnFlow, eng.NewStream())
	if err != nil {
		return nil, err
	}
	n.Gen = gen
	gen.Start()
	return n, nil
}

// Lookup is the perfect location oracle standing in for the location
// service, as in the paper's evaluation ("we did not incorporate ALS").
func (n *Network) Lookup(id anoncrypto.Identity) (geo.Point, bool) {
	node, ok := n.byID[id]
	if !ok {
		return geo.Point{}, false
	}
	return node.Pos(n.Eng.Now()), true
}

// Node returns the node with the given identity, or nil.
func (n *Network) Node(id anoncrypto.Identity) *Node { return n.byID[id] }

// sendOnFlow originates one CBR packet through the flow source's stack.
// Under an in-band location service the lookup happens first and the
// measured latency includes it; an unresolvable destination costs the
// packet (counted as sent, never delivered).
func (n *Network) sendOnFlow(f traffic.Flow, pktID uint64, payloadBytes int) {
	src := n.Nodes[f.Src]
	dstID := NodeID(f.Dst)
	originate := func(dstLoc geo.Point, record bool) {
		src.router.Originate(dstID, dstLoc, payloadBytes, pktID, record)
	}
	if src.overlay == nil {
		dstLoc, _ := n.Lookup(dstID)
		originate(dstLoc, true)
		return
	}
	n.Collector.PacketSent(pktID, n.Eng.Now())
	src.overlay.Resolve(dstID, func(loc geo.Point, ok bool) {
		if !ok {
			n.Collector.DropPacket(pktID, "ls-unresolved")
			return
		}
		originate(loc, false)
	})
}

// Run advances the simulation to the configured duration (plus a short
// drain so in-flight packets settle), audits the run's conservation
// invariants, and returns the result.
func (n *Network) Run() (Result, error) {
	drain := 2 * time.Second
	if err := n.Eng.Run(n.Cfg.Duration + drain); err != nil {
		return Result{}, fmt.Errorf("core: simulation aborted: %w", err)
	}
	if err := n.Audit(); err != nil {
		return Result{}, err
	}
	return n.Result(), nil
}

// Result aggregates the current counters without advancing time.
func (n *Network) Result() Result {
	r := Result{
		Protocol: n.Cfg.Protocol,
		Nodes:    n.Cfg.Nodes,
		Summary:  n.Collector.Summarize(),
		Channel:  n.Channel.Stats(),
	}
	for _, node := range n.Nodes {
		r.MAC = addMACStats(r.MAC, node.MAC.Stats())
		if node.AGFW != nil {
			r.AGFW = addAGFWStats(r.AGFW, node.AGFW.Stats())
		}
		if node.GPSR != nil {
			r.GPSR = addGPSRStats(r.GPSR, node.GPSR.Stats())
		}
	}
	if n.Revocation != nil {
		r.Revocation = n.Revocation.Stats()
	}
	if n.Sniffer != nil {
		r.Harvest = adversary.HarvestObservations(n.Sniffer.Observations())
	}
	return r
}

// Run builds and executes one scenario.
func Run(cfg Config) (Result, error) {
	n, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return n.Run()
}

// RunContext is Run under a context: the engine polls ctx between
// events (every few thousand fired events, so well under a wall-clock
// millisecond at simulator pace) and aborts with ctx's error once it is
// canceled — job cancellation and daemon shutdown do not wait out a
// 900-simulated-second run. A run that completes was never perturbed:
// the poll draws no randomness and schedules nothing, so results are
// bit-for-bit identical to Run's.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	n.Eng.Interrupt = ctx.Err
	return n.Run()
}

func addMACStats(a, b mac.Stats) mac.Stats {
	a.DataSent += b.DataSent
	a.RTSSent += b.RTSSent
	a.CTSSent += b.CTSSent
	a.AckSent += b.AckSent
	a.Delivered += b.Delivered
	a.Retries += b.Retries
	a.RetryDrops += b.RetryDrops
	a.QueueDrops += b.QueueDrops
	a.DupsDropped += b.DupsDropped
	a.BytesOnAir += b.BytesOnAir
	a.NAVDeferrals += b.NAVDeferrals
	return a
}

func addAGFWStats(a, b agfw.Stats) agfw.Stats {
	a.BeaconsSent += b.BeaconsSent
	a.Forwards += b.Forwards
	a.LastHopAttempts += b.LastHopAttempts
	a.TrapdoorTries += b.TrapdoorTries
	a.TrapdoorOpens += b.TrapdoorOpens
	a.ExplicitAcks += b.ExplicitAcks
	a.ImplicitAcks += b.ImplicitAcks
	a.Retransmits += b.Retransmits
	a.RetryDrops += b.RetryDrops
	a.DeadEnds += b.DeadEnds
	a.DuplicatesQuench += b.DuplicatesQuench
	a.GeocastAccepts += b.GeocastAccepts
	a.AdversaryDrops += b.AdversaryDrops
	a.BogusBeaconsSent += b.BogusBeaconsSent
	a.JunkHellosSent += b.JunkHellosSent
	a.JunkHellosHeard += b.JunkHellosHeard
	a.SpoofAcksSent += b.SpoofAcksSent
	a.SpoofAcksHeard += b.SpoofAcksHeard
	a.SpoofSettles += b.SpoofSettles
	a.BeaconsQuarantined += b.BeaconsQuarantined
	a.TrustQuarantines += b.TrustQuarantines
	a.TrustFallbacks += b.TrustFallbacks
	a.AuthAcksVerified += b.AuthAcksVerified
	a.AuthAcksBadMAC += b.AuthAcksBadMAC
	a.AuthAcksForeign += b.AuthAcksForeign
	a.TagRejects += b.TagRejects
	return a
}

func addGPSRStats(a, b gpsr.Stats) gpsr.Stats {
	a.BeaconsSent += b.BeaconsSent
	a.DataForwarded += b.DataForwarded
	a.DeadEnds += b.DeadEnds
	a.PerimHops += b.PerimHops
	a.MACFailures += b.MACFailures
	a.GeocastAccepts += b.GeocastAccepts
	a.AdversaryDrops += b.AdversaryDrops
	a.BogusBeaconsSent += b.BogusBeaconsSent
	a.JunkHellosSent += b.JunkHellosSent
	a.JunkHellosHeard += b.JunkHellosHeard
	a.BeaconsQuarantined += b.BeaconsQuarantined
	a.WatchdogConfirms += b.WatchdogConfirms
	a.WatchdogTimeouts += b.WatchdogTimeouts
	a.TrustQuarantines += b.TrustQuarantines
	a.TrustFallbacks += b.TrustFallbacks
	return a
}
