package amg

// CheckSweepResidual hands the kernel check to the external tests,
// which may import circuit (it imports this package) for real grids.
var CheckSweepResidual = checkSweepResidual
