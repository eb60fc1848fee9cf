package lib_test

import "irfusion/internal/lint/testdata/src/exportusefix/lib"

var _ = lib.ViaXTest
