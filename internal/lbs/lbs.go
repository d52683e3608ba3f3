// Package lbs is a synthetic location-based-service (LBS) query-serving
// workload: a deterministic, seeded population of mobile clients reports
// positions to an untrusted provider through a pluggable anonymization
// backend, other clients look those positions up, and the run scores
// both sides of the privacy-vs-utility tradeoff.
//
// The scenario is the classic buddy-tracking LBS: every UpdateInterval
// each client reports its (anonymized) position; queries ask the
// provider for a buddy's latest report. Four backends implement the
// report channel:
//
//   - paperals: the paper's encrypted-index ALS — reports are sealed
//     under each anticipated requester's RSA key and stored by opaque
//     index (locservice.SealLocation/ComputeIndex), so the provider
//     learns nothing; queries leak only the cleartext reply location.
//   - kanon: k-anonymity spatial cloaking — each report is the bounding
//     box of the client's k nearest clients, so the provider can pin a
//     report only to a box holding at least k candidates.
//   - gridcloak: multi-resolution precision-grid snapping — reports are
//     quantized to a geo.GridMap cell at a configurable level.
//   - geoind: geo-indistinguishability — reports are perturbed with
//     planar Laplace noise at privacy parameter ε.
//
// Each run emits a utility record per query (distance error against the
// mobility ground truth, cloak area, wire bytes from the locservice
// cost models, modeled service latency) and an adversary exposure
// record per report, fed through internal/adversary's pseudonym linker
// and scored with adversary.ScoreTracks. internal/exp folds grids of
// runs into privacy-vs-utility curves (see SweepRequest).
//
// Determinism contract: Run is a pure function of Config. All
// randomness comes from seed-derived math/rand streams drawn in a fixed
// order. paperals client keys are anoncrypto.KeyPairFor(identity,
// key bits): deterministic and shared process-wide, not drawn per run.
// crypto/rand is used only for the padding inside RSA sealing, whose
// bytes never reach a metric (ciphertext sizes are fixed by the key
// size). Executing a sweep at any parallel width is bit-identical to
// serial.
package lbs

import (
	"fmt"
	"time"

	"anongeo/internal/geo"
)

// Backend names one anonymization scheme for the report channel.
type Backend string

// The four report-channel backends, in canonical sweep order.
const (
	BackendPaperALS  Backend = "paperals"
	BackendKAnon     Backend = "kanon"
	BackendGridCloak Backend = "gridcloak"
	BackendGeoInd    Backend = "geoind"
)

// Backends returns every backend in canonical order.
func Backends() []Backend {
	return []Backend{BackendPaperALS, BackendKAnon, BackendGridCloak, BackendGeoInd}
}

// ParseBackend validates a backend name.
func ParseBackend(s string) (Backend, error) {
	b := Backend(s)
	switch b {
	case BackendPaperALS, BackendKAnon, BackendGridCloak, BackendGeoInd:
		return b, nil
	}
	return "", fmt.Errorf("lbs: field backend: value %q: want paperals | kanon | gridcloak | geoind", s)
}

// Config fully determines one LBS workload cell. Backend-specific
// parameters (K, GridLevel, Epsilon, KeyBits) must be zero unless the
// selected backend uses them, so a config has exactly one canonical
// encoding and the experiment cache never stores the same workload
// under two keys.
type Config struct {
	// Seed derives every random stream in the run.
	Seed int64 `json:"seed"`
	// Clients is the mobile population size (>= 2).
	Clients int `json:"clients"`
	// Queries is the number of lookup queries spread uniformly over
	// Duration.
	Queries int `json:"queries"`
	// Area is the deployment rectangle clients roam in.
	Area geo.Rect `json:"area"`
	// Duration is the simulated time horizon.
	Duration time.Duration `json:"duration"`
	// UpdateInterval is the report epoch: every client reports once per
	// interval.
	UpdateInterval time.Duration `json:"update_interval"`
	// MinSpeed/MaxSpeed/Pause parameterize the random waypoint mobility
	// (meters/second; see internal/mobility).
	MinSpeed float64       `json:"min_speed"`
	MaxSpeed float64       `json:"max_speed"`
	Pause    time.Duration `json:"pause"`
	// Buddies is each client's lookup fan-in: queries from client q go
	// to one of its Buddies successors, and (for paperals) those are
	// exactly the anticipated requesters reports are sealed for.
	Buddies int `json:"buddies"`

	// Backend selects the anonymization scheme.
	Backend Backend `json:"backend"`
	// K is the kanon cloak size (>= 2; kanon only).
	K int `json:"k,omitempty"`
	// GridLevel is the gridcloak resolution: cell side =
	// max(area width, height) / 2^GridLevel (1..20; gridcloak only).
	GridLevel int `json:"grid_level,omitempty"`
	// Epsilon is the geoind privacy parameter in 1/meters (geoind only).
	Epsilon float64 `json:"epsilon,omitempty"`
	// KeyBits is the paperals RSA modulus size (>= 512; paperals only).
	KeyBits int `json:"key_bits,omitempty"`

	// MaxTrackSightings caps the number of exposure sightings fed to the
	// pseudonym linker (its cost is superlinear); the run records how
	// many were tracked vs produced, so the cap is never silent.
	MaxTrackSightings int `json:"max_track_sightings"`
}

// DefaultConfig is a small, fast kanon workload; sweeps override the
// backend and its parameter axis.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Clients:        200,
		Queries:        10000,
		Area:           geo.NewRect(1500, 300),
		Duration:       120 * time.Second,
		UpdateInterval: 10 * time.Second,
		// Short pause (vs the routing paper's 60 s): waypoint models rest
		// one full pause before their first move, and an LBS staleness
		// curve needs clients that actually move during the run.
		MinSpeed:          1,
		MaxSpeed:          20,
		Pause:             5 * time.Second,
		Buddies:           4,
		Backend:           BackendKAnon,
		K:                 5,
		MaxTrackSightings: 20000,
	}
}

// fieldErr builds the package's field+value validation error.
func fieldErr(field string, value any, want string) error {
	return fmt.Errorf("lbs: field %s: value %v: %s", field, value, want)
}

// Validate checks the config, rejecting backend parameters that the
// selected backend does not use (canonical-encoding rule above).
func (c Config) Validate() error {
	if c.Clients < 2 {
		return fieldErr("clients", c.Clients, "need at least 2 clients")
	}
	if c.Queries < 1 {
		return fieldErr("queries", c.Queries, "need at least 1 query")
	}
	if c.Area.Width() <= 0 || c.Area.Height() <= 0 {
		return fieldErr("area", c.Area, "need a rectangle with positive extent")
	}
	if c.UpdateInterval <= 0 {
		return fieldErr("update_interval", c.UpdateInterval, "must be positive")
	}
	if c.Duration < c.UpdateInterval {
		return fieldErr("duration", c.Duration, "must cover at least one update interval")
	}
	if c.MinSpeed <= 0 {
		return fieldErr("min_speed", c.MinSpeed, "must be positive")
	}
	if c.MaxSpeed < c.MinSpeed {
		return fieldErr("max_speed", c.MaxSpeed, "must be >= min_speed")
	}
	if c.Pause < 0 {
		return fieldErr("pause", c.Pause, "must be non-negative")
	}
	if c.Buddies < 1 || c.Buddies >= c.Clients {
		return fieldErr("buddies", c.Buddies, "must be in [1, clients-1]")
	}
	if c.MaxTrackSightings < 1 {
		return fieldErr("max_track_sightings", c.MaxTrackSightings, "must be positive")
	}
	if _, err := ParseBackend(string(c.Backend)); err != nil {
		return err
	}
	if c.Backend != BackendKAnon && c.K != 0 {
		return fieldErr("k", c.K, "only meaningful for backend kanon")
	}
	if c.Backend != BackendGridCloak && c.GridLevel != 0 {
		return fieldErr("grid_level", c.GridLevel, "only meaningful for backend gridcloak")
	}
	if c.Backend != BackendGeoInd && c.Epsilon != 0 {
		return fieldErr("epsilon", c.Epsilon, "only meaningful for backend geoind")
	}
	if c.Backend != BackendPaperALS && c.KeyBits != 0 {
		return fieldErr("key_bits", c.KeyBits, "only meaningful for backend paperals")
	}
	switch c.Backend {
	case BackendKAnon:
		if c.K < 2 {
			return fieldErr("k", c.K, "kanon needs k >= 2")
		}
	case BackendGridCloak:
		if c.GridLevel < 1 || c.GridLevel > 20 {
			return fieldErr("grid_level", c.GridLevel, "gridcloak needs a level in [1, 20]")
		}
	case BackendGeoInd:
		if c.Epsilon <= 0 {
			return fieldErr("epsilon", c.Epsilon, "geoind needs epsilon > 0")
		}
	case BackendPaperALS:
		if c.KeyBits < 512 {
			return fieldErr("key_bits", c.KeyBits, "paperals needs key_bits >= 512")
		}
	}
	return nil
}
