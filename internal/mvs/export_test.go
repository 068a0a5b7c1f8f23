package mvs

// LocalSearchOracle exposes the per-move reference climb to the external
// property tests, which own the shared instance pool.
var LocalSearchOracle = localSearchOracle
