package nn

// denseLanes is denseLanesGo in SSE2 (lanes64_amd64.s): per block of
// eight lanes and per row, four XMM accumulators start at the broadcast
// bias and take MULPD then ADDPD per column — every column, or the set
// bits of the block's live word, found with BSFQ; ReLU, when asked, is
// MAXPD against +0 as the source operand, which yields +0 for -0 and for
// NaN exactly as relu64 does. SSE2, BSFQ and RCRQ are the amd64
// baseline, so there is no CPU check.
//
//go:noescape
func denseLanes(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool)

// allFinite is allFiniteGo in SSE2 (lanes64_amd64.s): SUBPD of each
// pair of weights from itself, ORed into two accumulators, which end all
// zero bits exactly when every difference was +0.
//
//go:noescape
func allFinite(w Vec) bool

// accLanes is accLanesGo in SSE2 (lanes64_amd64.s): per block of eight
// lanes and per row, four XMM accumulators start from y's values and
// take MULPD then ADDPD per column.
//
//go:noescape
func accLanes(y, x, w Vec, cols, ld, lanes int)
