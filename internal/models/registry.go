package models

import (
	"fmt"
	"sort"
)

// builder constructs a model from a configuration.
type builder func(Config) Model

// registry maps model names to builders.
var registry = map[string]builder{
	"iredge":        newIREDGe,
	"mavirec":       newMAVIREC,
	"irpnet":        newIRPNet,
	"pgau":          newPGAU,
	"maunet":        newMAUnet,
	"contestwinner": newContestWinner,
	"irfusion":      newIRFusionNet,
}

// Names returns the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New builds a registered model by name.
func New(name string, cfg Config) (Model, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return b(cfg), nil
}
