// Package exportusefix calls lib.Used, and nothing else of lib.
package exportusefix

import "irfusion/internal/lint/testdata/src/exportusefix/lib"

var _ = lib.Used
