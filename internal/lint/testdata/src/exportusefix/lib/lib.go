// Package lib declares the names exportuse judges; package exportusefix
// is their one non-test caller.
package lib

import "fmt"

// Shape is called by nobody, but it is named in Used's signature.
type Shape struct{ Sides int }

// String implements fmt.Stringer; no one calls it by name.
func (s Shape) String() string { return fmt.Sprint(s.Sides) }

// Used is called by package exportusefix.
func Used() *Shape { return &Shape{Sides: InPackageOnly()} }

// InPackageOnly has only in-package callers: a finding.
func InPackageOnly() int { return 3 }

// InTestOnly is named only by an in-package test file: a finding.
func InTestOnly() int { return 4 }

// ViaXTest is named by the package's own x_test file: a caller.
func ViaXTest() int { return 5 }
