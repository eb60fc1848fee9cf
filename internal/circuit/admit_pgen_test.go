package circuit_test

import (
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/pgen"
	"irfusion/internal/spice"
)

// TestAdmitDifferentialPgen runs Admit against the code it replaced
// (circuit.DiffAdmit, admit_test.go) on generated decks of both classes,
// as generated and as the server sees them: rendered and parsed back.
func TestAdmitDifferentialPgen(t *testing.T) {
	for _, class := range []pgen.Class{pgen.Fake, pgen.Real} {
		for seed := int64(1); seed <= 2; seed++ {
			d, err := pgen.Generate(pgen.DefaultConfig("diff", class, 48, 48, seed))
			if err != nil {
				t.Fatal(err)
			}
			circuit.DiffAdmit(t, d.Netlist)
			nl, err := spice.ParseString(d.Netlist.String())
			if err != nil {
				t.Fatal(err)
			}
			circuit.DiffAdmit(t, nl)
		}
	}
}
