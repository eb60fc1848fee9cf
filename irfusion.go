// Package irfusion reproduces "IR-Fusion: A Fusion Framework for
// Static IR Drop Analysis Combining Numerical Solution and Machine
// Learning" (DATE 2025) as a pure-Go library: a SPICE power-grid
// front end, an aggregation-based AMG-PCG solver (K-cycle, PowerRush
// style), hierarchical numerical-structural feature extraction, an
// Inception Attention U-Net (plus the paper's six baselines) on a
// from-scratch autodiff engine, and the augmented-curriculum training
// loop.
//
// This root package is the stable facade over the internal
// implementation packages. The package Example is its typical use,
// checked by go test: generate a design, solve it to convergence,
// train a miniature model and score the fused analysis against the
// golden map. The executables under cmd/ (irfusion, experiments)
// cover the rest of the surface.
package irfusion

import (
	"context"

	"irfusion/internal/circuit"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/grid"
	"irfusion/internal/metrics"
	"irfusion/internal/pgen"
)

// Config is the fused-pipeline configuration (solver budget, model
// architecture, ablation switches, training hyper-parameters).
type Config = core.Config

// Analyzer is a trained fusion pipeline: rough AMG-PCG solve →
// hierarchical features → Inception Attention U-Net refinement.
type Analyzer = core.Analyzer

// TrainResult bundles a trained Analyzer with its training
// trajectory.
type TrainResult = core.TrainResult

// NumericalAnalyzer is the pure numerical baseline (budgeted PCG /
// converged AMG-PCG).
type NumericalAnalyzer = core.NumericalAnalyzer

// Design is a synthetic power-grid design (SPICE netlist plus
// metadata).
type Design = pgen.Design

// Sample is a design prepared for the ML stage (features + golden
// label).
type Sample = dataset.Sample

// Map is a dense 2-D raster (feature map or IR-drop map).
type Map = grid.Map

// Report carries the contest metrics for one evaluation: MAE, F1,
// MIRDE, CC, runtime.
type Report = metrics.Report

// DesignClass selects the generator regime.
type DesignClass = pgen.Class

// Design classes: Fake (regular BeGAN-like grids, the "easy"
// curriculum bucket) and Real (irregular grids with blockages, the
// "hard" bucket).
const (
	Fake = pgen.Fake
	Real = pgen.Real
)

// DefaultConfig returns the full IR-Fusion configuration at the given
// square raster resolution.
func DefaultConfig(resolution int) Config { return core.Default(resolution) }

// Train runs the augmented-curriculum training loop on prepared
// samples, recording nothing.
func Train(cfg Config, train []*Sample) (*TrainResult, error) {
	return core.Train(context.Background(), cfg, train)
}

// LoadAnalyzer restores an Analyzer saved with Analyzer.Save.
var LoadAnalyzer = core.LoadAnalyzer

// DesignConfig builds a generator configuration for a synthetic
// power-grid design.
func DesignConfig(name string, class DesignClass, w, h int, seed int64) pgen.Config {
	return pgen.DefaultConfig(name, class, w, h, seed)
}

// GenerateDesign synthesizes a power-grid design (SPICE netlist with
// straps, vias, loads, and pads).
var GenerateDesign = pgen.Generate

// GenerateTrainingSet produces nFake fake plus nReal real designs and
// builds ML-ready samples for each, recording nothing.
func GenerateTrainingSet(nFake, nReal, size int, seedBase int64, opts dataset.Options) ([]*Sample, error) {
	return dataset.GenerateSet(context.Background(), nFake, nReal, size, seedBase, opts)
}

// BuildSample prepares one design for the ML stage (golden solve,
// rough solve, feature extraction).
var BuildSample = dataset.BuildCtx

// Evaluate computes the contest metrics of a prediction against the
// golden map.
var Evaluate = metrics.Evaluate

// ModelNames lists the registered architectures (the paper's six
// baselines plus "irfusion").
var ModelNames = core.ModelNames

// Transient is the dynamic IR-drop integrator (backward Euler over
// SPICE C cards); see circuit.NewTransient.
type Transient = circuit.Transient

// Network is the parsed circuit topology; System the reduced SPD
// IR-drop system.
type (
	Network = circuit.Network
	System  = circuit.System
)

// ParseNetlist builds the circuit topology from a parsed SPICE deck.
var ParseNetlist = circuit.FromNetlist

// NewTransient prepares a backward-Euler integrator over a system's
// capacitors with the given time step.
var NewTransient = circuit.NewTransient

// AnalyzeNets splits a dual-rail (or multi-net) deck and assembles an
// independent SPD system per power net — VDD IR drop and VSS ground
// bounce in one call.
var AnalyzeNets = circuit.AnalyzeNets
