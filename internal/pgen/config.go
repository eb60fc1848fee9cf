package pgen

import (
	"encoding"
	"encoding/json"
	"fmt"
)

// JSON (de)serialization of generator configurations: a /v1/analyze
// request carries its design as a "pgen" object, and clients build one
// with json.Marshal. Classes and directions travel as text.
var _, _ encoding.TextUnmarshaler = (*Class)(nil), (*Direction)(nil)

// MarshalText spells the class "fake" or "real".
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText reads "fake" (or "") and "real".
func (c *Class) UnmarshalText(b []byte) error {
	switch string(b) {
	case "fake", "":
		*c = Fake
	case "real":
		*c = Real
	default:
		return fmt.Errorf("pgen: unknown class %q", b)
	}
	return nil
}

// MarshalText spells the direction "horizontal" or "vertical".
func (d Direction) MarshalText() ([]byte, error) {
	if d == vertical {
		return []byte("vertical"), nil
	}
	return []byte("horizontal"), nil
}

// UnmarshalText reads "horizontal" (or "h", or "") and "vertical" (or "v").
func (d *Direction) UnmarshalText(b []byte) error {
	switch string(b) {
	case "horizontal", "h", "":
		*d = horizontal
	case "vertical", "v":
		*d = vertical
	default:
		return fmt.Errorf("pgen: unknown direction %q", b)
	}
	return nil
}

// UnmarshalJSON decodes every field afresh; an empty stack is no stack
// (nil: the default one).
func (c *Config) UnmarshalJSON(data []byte) error {
	type configJSON Config
	var in configJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Layers) == 0 {
		in.Layers = nil
	}
	*c = Config(in)
	return nil
}
