package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// A span is one timed interval of the traced pass. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (noParent for a root). Start and End are offsets from the tracer's
// origin, so a span file is self-contained.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

const noParent = -1

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. The traced pass runs at concurrency 1, so the tracer
// needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.origin)})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.origin)
	return s.End - s.Start
}

// selfTimes fills every span's Self: its duration minus the part of
// that interval its direct children cover. Children of one parent never
// overlap here (concurrency 1), so the covered part is their sum.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent != noParent {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// writeSpans stores the spans, with self times, as one JSON array.
func writeSpans(path string, spans []span) error {
	selfTimes(spans)
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPass takes the first traceRequests distinct requests of the
// list (quickTraceRequests under -quick), one at a time, against fresh
// servers. Each request gives a root span per round trip (direct and
// through a gateway, first sight and exact repeat, then an ECO variant)
// and a replay span whose children time every layer's entry point
// (layers.go). It returns medians over the requests.
func tracedPass(w workload, in inputs, an *analyzer, o runOpts) (out map[string]float64, err error) {
	start := time.Now()
	if an == nil {
		if an, err = trainAnalyzer(modelResolution(o.quick)); err != nil {
			return nil, err
		}
	}
	// One analyzer serves all three servers: the pass runs one request
	// at a time, so the model is never entered twice.
	direct, err := startFleet(1, an, w.journaled)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, direct.stop()) }()
	gated, err := startFleet(2, an, w.journaled)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, gated.stop()) }()
	probeDir, err := tempDir("probe-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(probeDir)) }()
	probe, err := newLayerProbe(an, probeDir)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, probe.close()) }()
	client := newClient(1)
	defer client.CloseIdleConnections()

	tr := newTracer()
	trips := map[string][]float64{}  // round-trip times by root span name
	layers := map[string][]float64{} // per-request values of the replay
	// call posts one request inside a root span.
	call := func(name string, req int, url string, body []byte) (sample, error) {
		var s sample
		var buf bytes.Buffer
		id := tr.begin(name, noParent, req)
		post(client, url, request{body: body, keep: true}, &buf, &s)
		trips[name] = append(trips[name], millis(tr.end(id)))
		if !s.ok {
			return s, fmt.Errorf("%s request %d: %s", name, req, s.fail)
		}
		return s, nil
	}
	last := func(name string) float64 { v := trips[name]; return v[len(v)-1] }
	seen := map[*byte]bool{} // an exact repeat shares its body with the request it repeats
	req, want := 0, traceRequests
	if o.quick {
		want = quickTraceRequests
	}
	for _, r := range in.list {
		if req == want {
			break
		}
		if seen[&r.body[0]] {
			continue
		}
		seen[&r.body[0]] = true
		first, err := call("serve.roundtrip", req, direct.front.url, r.body)
		if err != nil {
			return nil, err
		}
		if _, err = call("serve.hit_roundtrip", req, direct.front.url, r.body); err != nil {
			return nil, err
		}
		if _, err = call("cluster.roundtrip", req, gated.front.url, r.body); err != nil {
			return nil, err
		}
		viaGateway, err := call("cluster.hit_roundtrip", req, gated.front.url, r.body)
		if err != nil {
			return nil, err
		}
		owner, ok := gated.byName[viaGateway.shard]
		if !ok {
			return nil, fmt.Errorf("gateway response names unknown shard %q", viaGateway.shard)
		}
		if _, err = call("cluster.shard_hit_roundtrip", req, owner.url, r.body); err != nil {
			return nil, err
		}
		variant, err := variantRequest(r.body, editSeed(o.seed, 900_000+req))
		if err != nil {
			return nil, err
		}
		if _, err = call("cluster.eco_roundtrip", req, gated.front.url, variant); err != nil {
			return nil, err
		}
		layer, err := probe.replay(tr, req, r.body)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", req, err)
		}
		layer["serve.overhead_ms"] = last("serve.roundtrip") - layer["pipeline_ms"]
		delete(layer, "pipeline_ms")
		layer["cluster.gateway_overhead_ms"] = last("cluster.hit_roundtrip") - last("cluster.shard_hit_roundtrip")
		layer["serve.manifest_kb"] = float64(manifestBytes(first.body)) / 1e3
		for k, v := range layer {
			layers[k] = append(layers[k], v)
		}
		req++
	}
	if req == 0 {
		return nil, errors.New("no request to trace")
	}
	out = map[string]float64{
		"serve.roundtrip_ms":     median(trips["serve.roundtrip"]),
		"serve.hit_roundtrip_ms": median(trips["serve.hit_roundtrip"]),
		"cluster.hit_p50_ms":     median(trips["cluster.hit_roundtrip"]),
		"cluster.eco_p50_ms":     median(trips["cluster.eco_roundtrip"]),
	}
	for k, v := range layers {
		out[k] = median(v)
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.spans); err != nil {
			return nil, err
		}
	}
	out["trace_s"] = time.Since(start).Seconds()
	return out, nil
}
