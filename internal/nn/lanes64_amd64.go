package nn

// denseLanes is denseLanesGo in SSE2 (lanes64_amd64.s): per block of
// eight lanes and per row, four XMM accumulators start at the broadcast
// bias and take MULPD then ADDPD per column; ReLU, when asked, is MAXPD
// against +0 as the source operand, which yields +0 for -0 and for NaN
// exactly as relu64 does. SSE2 is the amd64 baseline, so there is no
// CPU check.
//
//go:noescape
func denseLanes(y, x, w, b Vec, cols, lanes int, relu bool)

// accLanes is accLanesGo in SSE2 (lanes64_amd64.s): per block of eight
// lanes and per row, four XMM accumulators start from y's values and
// take MULPD then ADDPD per column.
//
//go:noescape
func accLanes(y, x, w Vec, cols, ld, lanes int)
