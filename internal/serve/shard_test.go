package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestShardIdentity pins the cluster-facing identity surface of one
// shard: a named server prefixes its job ids with the shard name (so
// a gateway can route job lookups by id), reports the name from
// /healthz and /metricsz, and stamps it into every run manifest.
func TestShardIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Name: "shard7"})
	if s.cfg.Name != "shard7" {
		t.Fatalf("Name = %q", s.cfg.Name)
	}

	code, b := post(t, ts, "/v1/analyze", pgenBody(1, 16, ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	v := decodeJob(t, b)
	if !strings.HasPrefix(v.ID, "shard7-job-") {
		t.Fatalf("job id %q lacks the shard prefix", v.ID)
	}
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatal("no manifest attached")
	}
	if v.Result.Manifest.Shard != "shard7" {
		t.Fatalf("manifest shard %q", v.Result.Manifest.Shard)
	}
	// Named jobs stay addressable under their prefixed id.
	code, _ = get(t, ts, "/v1/jobs/"+v.ID)
	if code != http.StatusOK {
		t.Fatalf("GET prefixed job id: status %d", code)
	}

	for _, path := range []string{"/healthz", "/metricsz"} {
		_, body := get(t, ts, path)
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if m["shard"] != "shard7" {
			t.Fatalf("%s shard = %v", path, m["shard"])
		}
	}
}

// TestStandaloneJobIDsUnchanged guards backward compatibility: a
// server without a shard name keeps the pre-cluster bare id form.
func TestStandaloneJobIDsUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, b := post(t, ts, "/v1/analyze", pgenBody(1, 16, ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	if v := decodeJob(t, b); !strings.HasPrefix(v.ID, "job-") {
		t.Fatalf("standalone job id %q changed form", v.ID)
	}
}

// TestHandoffRecorded pins the failover provenance trail: a request
// arriving with the gateway's handoff header yields a manifest whose
// serve.handoff counter and handoff_from config name the failed shard.
func TestHandoffRecorded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Name: "shard1"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		strings.NewReader(pgenBody(2, 16, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderHandoffFrom, "shard0")
	req.Header.Set(HeaderRouteAttempt, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	m := v.Result.Manifest
	if m.Counters["serve.handoff"] != 1 {
		t.Fatalf("serve.handoff counter = %d", m.Counters["serve.handoff"])
	}
	cfg, ok := m.Config.(map[string]any)
	if !ok {
		t.Fatalf("manifest config has unexpected shape %T", m.Config)
	}
	if cfg["handoff_from"] != "shard0" {
		t.Fatalf("handoff_from = %v", cfg["handoff_from"])
	}
}
