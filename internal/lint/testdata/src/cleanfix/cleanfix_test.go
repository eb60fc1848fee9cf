package cleanfix_test

import "irfusion/internal/lint/testdata/src/cleanfix"

// The package's own x_test files are callers, as another package's
// would be: with them, neither export is an exportuse finding.
var _, _ = cleanfix.Scale, cleanfix.SumCtx
