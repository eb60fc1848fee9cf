package pgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"irfusion/internal/spice"
)

// pinnedConfig is one configuration of the pinned set.
type pinnedConfig struct {
	key string
	cfg Config
}

// dupStack repeats layer number 1 two entries apart (its nodes at the
// same (x, y) are one node, as the deck's names make them) and ends in
// a layer that holds a single strap on a 64 µm die.
func dupStack() []LayerSpec {
	return []LayerSpec{
		{Layer: 1, Dir: horizontal, Pitch: 2, RPerUm: 0.8, ViaOhms: 2.0, ViaEvery: 1},
		{Layer: 4, Dir: vertical, Pitch: 4, RPerUm: 0.4, ViaOhms: 1.0, ViaEvery: 2},
		{Layer: 1, Dir: horizontal, Pitch: 6, RPerUm: 0.3, ViaOhms: 0.5, ViaEvery: 1},
		{Layer: 9, Dir: vertical, Pitch: 64, RPerUm: 0.05, ViaOhms: 0.25, ViaEvery: 1},
	}
}

// pinnedConfigs is the pinned set: both classes at every die size the
// server and the benchmark use, seeds 1-4, and two custom stacks.
func pinnedConfigs() []pinnedConfig {
	var out []pinnedConfig
	for _, class := range []Class{Fake, Real} {
		for _, die := range []int{16, 32, 64, 128, 256} {
			for seed := int64(1); seed <= 4; seed++ {
				key := fmt.Sprintf("%s/%d/%d", class, die, seed)
				out = append(out, pinnedConfig{key, DefaultConfig(key, class, die, die, seed)})
			}
		}
	}
	dup := DefaultConfig("dup", Real, 64, 64, 3)
	dup.Layers = dupStack()
	// Adjacent entries with one layer number: each via joins a node to
	// itself, a self-loop the prune's adjacency must carry.
	adj := DefaultConfig("dupadj", Fake, 32, 32, 2)
	adj.Layers = []LayerSpec{
		{Layer: 1, Dir: horizontal, Pitch: 2, RPerUm: 0.8, ViaOhms: 2.0, ViaEvery: 1},
		{Layer: 1, Dir: vertical, Pitch: 4, RPerUm: 0.4, ViaOhms: 1.0, ViaEvery: 1},
		{Layer: 7, Dir: horizontal, Pitch: 8, RPerUm: 0.2, ViaOhms: 0.5, ViaEvery: 1},
	}
	return append(out, pinnedConfig{"dup", dup}, pinnedConfig{"dupadj", adj})
}

// pinnedDesign is one design of the pinned set, named for the table.
type pinnedDesign struct {
	key    string
	design *Design
}

// pinnedDesigns generates the pinned set, plus one ECO edit.
func pinnedDesigns(t testing.TB) []pinnedDesign {
	t.Helper()
	var out []pinnedDesign
	for _, p := range pinnedConfigs() {
		d, err := Generate(p.cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.key, err)
		}
		out = append(out, pinnedDesign{p.key, d})
		if p.key == "real/64/1" {
			out = append(out, pinnedDesign{"eco", Perturb(d, 0.3, 5)})
		}
	}
	return out
}

// deckDigest is the SHA-256 of a design's name, deck text and hotspot
// centres.
func deckDigest(d *Design) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", d.Name)
	h.Write([]byte(d.Netlist.String()))
	fmt.Fprintf(h, "%v\n", d.CurrentBlobs)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeckBytesPinned holds every generated deck to the bytes the
// map-based generator and the fmt-based renderer produced: the digests
// below were captured from them, so a faster generator or renderer
// must not move a single byte or a single rng draw.
func TestDeckBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"fake/16/1":  "97d77c6641473556a7995bf981b1c3e88dc12d1f8f8b6cb461bdbf9fe8e5ff6f",
		"fake/16/2":  "e411daa0e930b9bd857cee2460e01d4b747cedf6063484ce4689c1a8c5d04022",
		"fake/16/3":  "c8c4b4163559092299d34efe7db3dadee81157b0a08e2546367ce26e6b3b6c42",
		"fake/16/4":  "2c7ad43262158c9ad74fd6c4d561a2cd672549667648688d7ea9db8ff0e887c9",
		"fake/32/1":  "bf24a444b79ce1282a4d97e5b13447c719d3c9a315a17f8dc0b906e5752eda33",
		"fake/32/2":  "1e0bc6c60fe54f5dab45c6736aa7c7e17283c1d5bc0380320e1b9ff30dce514e",
		"fake/32/3":  "4d9c3e1556473c2c85ccafd8c9211d674ecc78466d64fdda82fd198bfee0da83",
		"fake/32/4":  "bbe733786c95b6c799c5c36b4d31d3b6610f39ccb46f0505f6c2743763eef999",
		"fake/64/1":  "6ac81e0c09235b7a098d8544f41d19fc4fbb310fb219cb482a778feef2c0dec7",
		"fake/64/2":  "7c43fd719c39bb3d083c8cb6e1c990a765f9083a6b9b737e4c7fab5f4b990cf8",
		"fake/64/3":  "3719865dc8c1c024b77cf153fd3bfb6cdd3c6367cc479c2f38aaad484000c8ca",
		"fake/64/4":  "28562dbcc495fc4f7b886534cf0c0a456dced5c7e3c39944254f515cbc14cd67",
		"fake/128/1": "9ef1c4c5312dacd40ad9470eccdbed9b2cffa25dae2c78215f4ab8073d61c6f0",
		"fake/128/2": "e7a9a7e795daba5f93f10ead978761cb24e8c3e6bcfc2c9f731a0145be126d5e",
		"fake/128/3": "e0497958e012bb9b875481aa8a16baabbd47b86351717261d994bff809365cfa",
		"fake/128/4": "7ddd69c7dc8984980e0511ce56d521eda8284bb69270a78bf40c31eafea99da1",
		"fake/256/1": "530c31de7fd08b3ca1ad5017038ed49a8f986a2840ff04e436b49b5048d1472a",
		"fake/256/2": "8f091b5dbfa93d2d62e4dff874a2db12f92120af3c1ff3d96a63205958176735",
		"fake/256/3": "1a9f63698a480762197aa613a9c9204b1316a31a6d6ccbfad6dd6ece34659d4a",
		"fake/256/4": "1d6e4af6c9093584d46b8f2fa08e09bdab03b1e63a18b5fe836d0d94465583c9",
		"real/16/1":  "abb5b01d0bdfb75e822668555cc19610b1a6f3670d3e87ebad3801750e6f6a66",
		"real/16/2":  "01d0737f64dde5ec08bea7e398c96e641057e7b7e216481b83a9cef4abae9e94",
		"real/16/3":  "0474b7855fc23c195787aa5861a6a28a7b5645f43fd140642c4f8ccf13205d2a",
		"real/16/4":  "b48867a07a7b4782eff403c70640046476732d2f82adfe36767d6538e12993cc",
		"real/32/1":  "5a3b9844415f6c54458fd843ead0502a9facd39f4594e5858ccf39158ddbb0a9",
		"real/32/2":  "3a8bf7d1a3b9d2d5b81dde9ef013b6b13589ced3d7078349cbffbfef9c1acfb6",
		"real/32/3":  "6967aca43fbf23e6d85c4a4e69ca5d7f9f734d0fa0322acbc0e0cd417d01adf5",
		"real/32/4":  "07171e9a0f637211b85a1319c5ddee1510638c9166e8240174b6c4f9f30c1e97",
		"real/64/1":  "051701e43c314a5388a5b4b2ba10de6134b9faa4552e4e33340c64b10f9c584f",
		"real/64/2":  "0a356c8a413c50ac729715899de9ef7783a76548b08d5016a624f78bf6c798ae",
		"real/64/3":  "224d9c961cd754a8d7562283b4df0dc864332abc858257079c0d5d18d0dc569a",
		"real/64/4":  "44414d6bf94e3315d6f5ee1320f2428efdb307c5721e0215443e9353c4a4c589",
		"real/128/1": "ee6c3fe56694c82cc5c28cb7e199368dac94464ad6aaaf4d328ac4c92c64968c",
		"real/128/2": "274e01cbe5ddbd7f96a66aaa92b6b987a30019cf78de6c67137f11516efbeec1",
		"real/128/3": "1f5a59c9f6fa24414e84230a67fa7b58b102772eaf3da7c638d37350c3be9677",
		"real/128/4": "6f6f3c978a092857b433dd45752913413df4c33a62d78684b611cee45042085d",
		"real/256/1": "a7d65be1c9ca3d84d8575b9a7206aa1fa7264bb99888de9ff0fcceb9eb3e0647",
		"real/256/2": "f1c29721dbdf9a1bd10a67f632cad2fda29dc10bcb294d6e5e1b21ce003ec9ec",
		"real/256/3": "ba3fc1d7b27fc90c0aaff4fec17235650f1d5154517aa0687b30080ffc64fdde",
		"real/256/4": "8b5e2f8db4b596745955700810f2da9ff6eb9f83b14cb0762f1460d4d187bb37",
		"eco":        "9a601423ba7225b695534f964e08e71ef9be2278f88bd9072b6d8b3d4ca5de91",
		"dup":        "04e290bd4b25e17d59001c1af396f116b10d83981e0819f2c6cf050b4d7f1aa3",
		"dupadj":     "ac27e022508a218b363e93d8a3f5b22211351774356086b01576638e6d73917b",
	}
	for _, p := range pinnedDesigns(t) {
		got := deckDigest(p.design)
		if want, ok := pinned[p.key]; !ok || got != want {
			t.Errorf("%s: digest %s, pinned %s", p.key, got, want)
			t.Logf("\t%q: %q,", p.key, got)
		}
		var w bytes.Buffer
		if err := p.design.Netlist.Write(&w); err != nil {
			t.Fatal(err)
		}
		if w.String() != p.design.Netlist.String() {
			t.Errorf("%s: Write and String emit different bytes", p.key)
		}
	}
}

// TestNodeNamesRoundTrip: every card of the pinned designs is named for
// its creation-time number, and each of its node names parses back to
// the net, layer number and position the node was made with.
func TestNodeNamesRoundTrip(t *testing.T) {
	for _, p := range pinnedConfigs() {
		b, d, err := generate(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := MaxCards(p.cfg); len(b.cards) > n {
			t.Errorf("%s: %d cards made, over the bound %d", p.key, len(b.cards), n)
		}
		reached := b.powered()
		els := d.Netlist.Elements
		for i, c := range b.cards {
			if (c.a != ground && !reached[c.a]) || (c.b != ground && !reached[c.b]) {
				continue
			}
			e := els[0]
			els = els[1:]
			if want := c.typ.String() + strconv.Itoa(i+1); e.Name != want || e.Type != c.typ {
				t.Fatalf("%s: card %s of type %v, want %s", p.key, e.Name, e.Type, want)
			}
			for _, end := range []struct {
				id   int32
				name string
			}{{c.a, e.NodeA}, {c.b, e.NodeB}} {
				if end.id == ground {
					if end.name != spice.Ground {
						t.Fatalf("%s: %s: ground named %q", p.key, e.Name, end.name)
					}
					continue
				}
				want := b.nodes[end.id]
				if got, err := spice.ParseNode(end.name); err != nil || got != want {
					t.Fatalf("%s: %s: node %q parses to %+v (%v), want %+v", p.key, e.Name, end.name, got, err, want)
				}
			}
		}
		if len(els) != 0 {
			t.Errorf("%s: %d elements past the kept cards", p.key, len(els))
		}
	}
}
