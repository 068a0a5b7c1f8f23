// Package engine executes logical plans over in-memory tables while
// metering resource usage, and converts usage into dollar costs with the
// paper's pricing model (Definitions 1-3):
//
//	Aα = α·u_sto   (storage, $/GB)
//	Aβ = β·u_cpu   (CPU, $/(core·minute))
//	Aγ = γ·u_mem   (memory, $/(GB·minute))
//	A_{β,γ}(q) = Aβ(q) + Aγ(q)
package engine

// Pricing holds the billing constants. Defaults follow the paper's
// Table II: α=1.67e-5 $/GB, β=1e-1 $/(core·min), γ=1e-3 $/(GB·min).
type Pricing struct {
	Alpha float64 // $/GB of stored view
	Beta  float64 // $/(core·minute)
	Gamma float64 // $/(GB·minute)
	// OpsPerCoreMinute converts the executor's abstract row operations
	// into core·minutes: u_cpu = ops / OpsPerCoreMinute.
	OpsPerCoreMinute float64
}

// DefaultPricing returns the paper's Table II constants with a conversion
// factor sized so our synthetic workloads land at comparable utility
// magnitudes (single-digit to hundreds of dollars).
func DefaultPricing() Pricing {
	return Pricing{
		Alpha:            1.67e-5,
		Beta:             1e-1,
		Gamma:            1e-3,
		OpsPerCoreMinute: 1e6,
	}
}

// Usage is the metered resource consumption of one plan execution.
type Usage struct {
	CPUOps    int64 // abstract weighted row operations
	PeakBytes int64 // peak simultaneously-held bytes
	OutRows   int   // result cardinality
	OutBytes  int64 // result byte size (u_sto when materialized)
}

// CPUMinutes converts operations into core·minutes under the pricing.
func (u Usage) CPUMinutes(p Pricing) float64 {
	return float64(u.CPUOps) / p.OpsPerCoreMinute
}

// MemGBMinutes approximates GB·minutes as peak-GB × runtime-minutes,
// with runtime equal to single-core CPU minutes.
func (u Usage) MemGBMinutes(p Pricing) float64 {
	return float64(u.PeakBytes) / 1e9 * u.CPUMinutes(p)
}

// Cost returns A_{β,γ} in dollars: the paper's computation cost of a query
// or subquery (Definition 1).
func (u Usage) Cost(p Pricing) float64 {
	return p.Beta*u.CPUMinutes(p) + p.Gamma*u.MemGBMinutes(p)
}

// StorageCost returns Aα in dollars for materializing the output
// (Definition 2).
func (u Usage) StorageCost(p Pricing) float64 {
	return p.Alpha * float64(u.OutBytes) / 1e9
}

// TotalViewOverhead returns O_vs = Aα(vs) + A_{β,γ}(s), the total overhead
// of building a materialized view on this execution (Definition 3).
func (u Usage) TotalViewOverhead(p Pricing) float64 {
	return u.StorageCost(p) + u.Cost(p)
}

// meter tracks live and peak allocated bytes plus CPU operations during a
// single execution, and the trace of it: each node's entry and the live
// bytes after every allocation. arena, when set, holds the operators'
// output.
type meter struct {
	ops  int64
	cur  int64
	peak int64

	nodes []nodeTrace
	live  []int64
	arena *arena
}

func (m *meter) op(n int64) { m.ops += n }

func (m *meter) alloc(bytes int64) {
	m.cur += bytes
	if m.cur > m.peak {
		m.peak = m.cur
	}
	m.live = append(m.live, m.cur)
}

func (m *meter) free(bytes int64) { m.cur -= bytes }
