package serve

import (
	"fmt"

	"anongeo/internal/core"
)

// SweepRequest is the body of POST /v1/sweeps: a base scenario plus the
// grid axes to sweep it over — exactly core.DensityGrid's shape, so a
// Figure 1 reproduction is one POST. Empty axes default to the base
// config's own values (a single-cell job).
type SweepRequest struct {
	// Base is the scenario every cell derives from, including an
	// optional declarative fault plan (Base.Faults).
	Base core.Config `json:"base"`
	// NodeCounts is the density axis; empty means [Base.Nodes].
	NodeCounts []int `json:"node_counts,omitempty"`
	// Protocols names the routing stacks to compare: "gpsr", "agfw",
	// "agfw-noack" (case-insensitive). Empty means the base protocol.
	Protocols []string `json:"protocols,omitempty"`
	// Repeats is the number of independent seeds per grid cell,
	// averaged into one point (<1 → 1).
	Repeats int `json:"repeats,omitempty"`
}

// Cells reports the grid size of the normalized request.
func (r SweepRequest) Cells() int {
	return len(r.NodeCounts) * len(r.Protocols) * r.Repeats
}

// normalize fills request defaults, canonicalizes the axes (so two
// spellings of the same grid share a job ID), and validates every cell
// the grid will expand to. maxCells bounds the grid for admission
// control.
func (r SweepRequest) normalize(maxCells int) (SweepRequest, error) {
	out := r
	// Clone the node axis: a shallow copy would share the caller's
	// backing array, a data race when one request value is submitted
	// from several goroutines. ParseAxis returns a fresh protocol slice.
	out.NodeCounts = append([]int(nil), r.NodeCounts...)
	if out.Repeats < 1 {
		out.Repeats = 1
	}
	if len(out.NodeCounts) == 0 {
		out.NodeCounts = []int{out.Base.Nodes}
	}
	protos := r.Protocols
	if len(protos) == 0 {
		protos = []string{core.ProtocolValue(out.Base.Protocol)}
	}
	axis, err := core.ParseAxis("protocol", protos)
	if err != nil {
		return out, fmt.Errorf("protocols: %w", err)
	}
	out.Protocols = axis.Values // canonical spelling

	// Server-side jobs must be pure functions of the request: a trace
	// sink or sniffer harvest is an in-process attachment that neither
	// serializes into a response cleanly nor caches, and would defeat
	// the dedupe-by-content contract.
	if out.Base.Trace != nil {
		return out, fmt.Errorf("base.Trace: tracing is not available over the API")
	}
	if out.Base.WithSniffer {
		return out, fmt.Errorf("base.WithSniffer = true: sniffer harvests are not available over the API")
	}

	if n := out.Cells(); maxCells > 0 && n > maxCells {
		return out, fmt.Errorf("grid has %d cells (node_counts %d × protocols %d × repeats %d), server cap is %d",
			n, len(out.NodeCounts), len(out.Protocols), out.Repeats, maxCells)
	}

	// Validate exactly the cells that will run, so the 400 names the
	// offending field instead of failing the job later.
	pts, err := core.DensityGrid(out.Base, out.NodeCounts, out.Protocols, out.Repeats).Points()
	if err != nil {
		return out, err
	}
	for _, cell := range core.Cells(pts) {
		if err := cell.Config.Validate(); err != nil {
			return out, fmt.Errorf("cell %q: %w", cell.Label, err)
		}
	}
	return out, nil
}
