package pgen

import (
	"encoding/json"
	"fmt"
)

// JSON (de)serialization of generator configurations: a /v1/analyze
// request carries its design as a "pgen" object, and clients build one
// with json.Marshal.

// configJSON mirrors Config with string enums for readability.
type configJSON struct {
	Name           string          `json:"name"`
	Class          string          `json:"class"`
	Seed           int64           `json:"seed"`
	W              int             `json:"w"`
	H              int             `json:"h"`
	VDD            float64         `json:"vdd"`
	Layers         []layerSpecJSON `json:"layers,omitempty"`
	NumPads        int             `json:"num_pads"`
	CellPitch      int             `json:"cell_pitch"`
	BackgroundAmps float64         `json:"background_amps"`
	Hotspots       int             `json:"hotspots"`
	HotspotAmps    float64         `json:"hotspot_amps"`
	Blockages      int             `json:"blockages"`
}

type layerSpecJSON struct {
	Layer    int     `json:"layer"`
	Dir      string  `json:"dir"`
	Pitch    int     `json:"pitch"`
	RPerUm   float64 `json:"r_per_um"`
	ViaOhms  float64 `json:"via_ohms"`
	ViaEvery int     `json:"via_every"`
}

// MarshalJSON implements json.Marshaler for Config.
func (c Config) MarshalJSON() ([]byte, error) {
	out := configJSON{
		Name: c.Name, Class: c.Class.String(), Seed: c.Seed,
		W: c.W, H: c.H, VDD: c.VDD,
		NumPads: c.NumPads, CellPitch: c.CellPitch,
		BackgroundAmps: c.BackgroundAmps, Hotspots: c.Hotspots,
		HotspotAmps: c.HotspotAmps, Blockages: c.Blockages,
	}
	for _, l := range c.Layers {
		dir := "horizontal"
		if l.Dir == vertical {
			dir = "vertical"
		}
		out.Layers = append(out.Layers, layerSpecJSON{
			Layer: l.Layer, Dir: dir, Pitch: l.Pitch,
			RPerUm: l.RPerUm, ViaOhms: l.ViaOhms, ViaEvery: l.ViaEvery,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Config.
func (c *Config) UnmarshalJSON(data []byte) error {
	var in configJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	c.Name, c.Seed = in.Name, in.Seed
	c.W, c.H, c.VDD = in.W, in.H, in.VDD
	c.NumPads, c.CellPitch = in.NumPads, in.CellPitch
	c.BackgroundAmps, c.Hotspots = in.BackgroundAmps, in.Hotspots
	c.HotspotAmps, c.Blockages = in.HotspotAmps, in.Blockages
	switch in.Class {
	case "fake", "":
		c.Class = Fake
	case "real":
		c.Class = Real
	default:
		return fmt.Errorf("pgen: unknown class %q", in.Class)
	}
	c.Layers = nil
	for _, l := range in.Layers {
		var dir Direction
		switch l.Dir {
		case "horizontal", "h", "":
			dir = horizontal
		case "vertical", "v":
			dir = vertical
		default:
			return fmt.Errorf("pgen: unknown direction %q", l.Dir)
		}
		c.Layers = append(c.Layers, LayerSpec{
			Layer: l.Layer, Dir: dir, Pitch: l.Pitch,
			RPerUm: l.RPerUm, ViaOhms: l.ViaOhms, ViaEvery: l.ViaEvery,
		})
	}
	return nil
}
