package nn

import "math"

// Adam is the Adam optimizer with optional weight decay (AdamW-style
// decoupled decay when WeightDecay > 0).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64
	// GradClip caps the global gradient norm when > 0.
	GradClip float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns Adam with the conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to the parameters using their accumulated
// gradients, then leaves gradients untouched (call ZeroGrads after).
func (a *Adam) Step(params []*Tensor) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Data))
			a.v[i] = make([]float64, len(p.Data))
		}
	}
	if len(a.m) != len(params) {
		panic("nn: Adam.Step called with a different parameter set")
	}
	if a.GradClip > 0 {
		total := 0.0
		for _, p := range params {
			for _, g := range p.Grad {
				total += g * g
			}
		}
		norm := math.Sqrt(total)
		if norm > a.GradClip {
			scale := a.GradClip / norm
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			upd := a.LR * mh / (math.Sqrt(vh) + a.Eps)
			if a.WeightDecay > 0 {
				upd += a.LR * a.WeightDecay * p.Data[i]
			}
			p.Data[i] -= upd
		}
	}
}

// ZeroGrads clears the gradients of all parameters.
func ZeroGrads(params []*Tensor) {
	for _, p := range params {
		p.zeroGrad()
	}
}

// NumParams counts scalar parameters.
func NumParams(params []*Tensor) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}
