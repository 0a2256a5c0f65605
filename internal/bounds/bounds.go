// Package bounds computes provable lower bounds on the platform cost of
// an instance, used to assess the absolute performance of the heuristics
// (the role CPLEX's optimal solutions play in the paper's last
// experiment).
//
// All bounds are sound: no feasible mapping can cost less. They are not
// tight in general — tightness comes from the exact/ILP solvers on small
// instances.
package bounds

import (
	"math"

	"repro/internal/instance"
	"repro/internal/platform"
)

// TotalWork returns rho times the summed work of all operators, in
// work-units/s: the aggregate compute rate any platform must provide.
func TotalWork(in *instance.Instance) float64 {
	total := 0.0
	for _, w := range in.W {
		total += in.Rho * w
	}
	return total
}

// TotalDownload returns the summed download rate of every object type the
// tree uses, in MB/s. Every used type must be downloaded by at least one
// processor, so the platform's aggregate NIC bandwidth must cover it.
func TotalDownload(in *instance.Instance) float64 {
	total := 0.0
	for _, k := range in.Tree.ObjectSet() {
		total += in.Rate(k)
	}
	return total
}

// CeilEps is subtracted from a processor-count ratio before rounding it
// up, so a ratio that is a whole number up to float rounding does not
// count one processor too many.
const CeilEps = 1e-9

// MinProcessors returns a lower bound on the number of processors any
// feasible mapping purchases: enough aggregate CPU for the total work and
// enough aggregate NIC for the mandatory downloads, given that a single
// processor provides at most the catalog's best CPU and widest NIC.
func MinProcessors(in *instance.Instance) int {
	cat := in.Platform.Catalog
	best := cat.MostExpensive()
	n := 1
	if c := int(math.Ceil(TotalWork(in)/cat.SpeedUnits(best) - CeilEps)); c > n {
		n = c
	}
	if c := int(math.Ceil(TotalDownload(in)/cat.BandwidthMBps(best) - CeilEps)); c > n {
		n = c
	}
	return n
}

// CostLowerBound returns a lower bound on the total platform cost in
// dollars. It combines three sound ingredients:
//
//   - every processor costs at least the cheapest configuration,
//   - aggregate CPU capacity must reach TotalWork; capacity beyond the
//     base CPU included with each chassis costs at least the catalog's
//     best marginal $/unit (the minimum slope from the base option, which
//     under-estimates every real option by construction),
//   - symmetrically for NIC capacity versus TotalDownload.
func CostLowerBound(in *instance.Instance) float64 {
	cat := in.Platform.Catalog
	n := float64(MinProcessors(in))
	cheapest := cat.Cost(platform.Config{})
	cost := n * cheapest

	// Marginal cost of CPU capacity beyond n base CPUs.
	baseSpeed := cat.SpeedUnits(platform.Config{})
	if extra := TotalWork(in) - n*baseSpeed; extra > 0 {
		cost += extra * minSlopeCPU(cat)
	}
	baseNIC := cat.BandwidthMBps(platform.Config{})
	if extra := TotalDownload(in) - n*baseNIC; extra > 0 {
		cost += extra * minSlopeNIC(cat)
	}
	return cost
}

// minSlopeCPU returns the smallest upcharge per extra work-unit/s over the
// base CPU option; every catalog option lies on or above the line from the
// base option with this slope, so charging it under-estimates all choices.
func minSlopeCPU(cat *platform.Catalog) float64 {
	base := cat.CPUs[0]
	slope := math.Inf(1)
	for _, o := range cat.CPUs[1:] {
		extra := (o.SpeedGHz - base.SpeedGHz) * platform.WorkUnitsPerGHz
		if extra > 0 {
			if s := (o.Upcharge - base.Upcharge) / extra; s < slope {
				slope = s
			}
		}
	}
	if math.IsInf(slope, 1) {
		return 0 // single option: no purchasable extra capacity to price
	}
	return slope
}

// minSlopeNIC is minSlopeCPU for network cards, in $ per extra MB/s.
func minSlopeNIC(cat *platform.Catalog) float64 {
	base := cat.NICs[0]
	slope := math.Inf(1)
	for _, o := range cat.NICs[1:] {
		extra := o.MBps() - base.MBps()
		if extra > 0 {
			if s := (o.Upcharge - base.Upcharge) / extra; s < slope {
				slope = s
			}
		}
	}
	if math.IsInf(slope, 1) {
		return 0
	}
	return slope
}
