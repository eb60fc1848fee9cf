package lint

// SARIF 2.1.0 output for code-scanning upload: CI writes the
// post-baseline findings as a SARIF log so they surface as annotations
// on the PR diff instead of only as a failed job log. Only the subset
// of the format GitHub's upload action consumes is emitted — tool
// driver with per-rule metadata, and one result per diagnostic with a
// physical location relative to the source root.

import (
	"encoding/json"
	"io"
)

// ruleMeta is the SARIF-facing description of one lint rule.
type ruleMeta struct {
	id    string
	short string
}

// sarifRules lists every rule the runner can emit, in stable order.
// The "directive" pseudo-rule covers malformed //irfusion: comments.
var sarifRules = []ruleMeta{
	{"hotpath", "//irfusion:hotpath functions must not allocate and may only call hotpath or waived functions"},
	{"ctxcheck", "exported ...Ctx functions must observe their context in loops and must not drop it"},
	{"hooksafe", "observability and fault hooks must be resolved via their nil-safe resolvers"},
	{"errwrap", "fmt.Errorf with an error argument must wrap with %w"},
	{"floateq", "float ==/!= requires an //irfusion:exact rationale"},
	{"nogo", "goroutines are spawned only in the packages that own lifecycle management"},
	{"locksafe", "locks are released on every path and never held across blocking operations"},
	{"ctxleak", "context cancel funcs are called on every path, deferred, or handed off"},
	{"atomicmix", "a variable accessed via sync/atomic is never read or written directly"},
	{"sitedrift", "fault-site and counter literals match their declaring registries"},
	{"directive", "//irfusion: directives must be known and carry a rationale"},
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// WriteSARIF writes diags as a single-run SARIF 2.1.0 log. Diagnostic
// file paths are already module-relative with forward slashes, which
// is exactly the uri form SARIF wants against %SRCROOT%.
func WriteSARIF(w io.Writer, diags []Diagnostic) error {
	index := map[string]int{}
	rules := make([]sarifRule, 0, len(sarifRules))
	for i, rm := range sarifRules {
		index[rm.id] = i
		rules = append(rules, sarifRule{ID: rm.id, ShortDescription: sarifMessage{Text: rm.short}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		ri, ok := index[d.Rule]
		if !ok {
			// A rule this table does not know about yet: register it on
			// the fly so the log stays self-describing.
			ri = len(rules)
			index[d.Rule] = ri
			rules = append(rules, sarifRule{ID: d.Rule, ShortDescription: sarifMessage{Text: d.Rule}})
		}
		line := d.Line
		if line < 1 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: ri,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: d.File, URIBaseID: "%SRCROOT%"},
				Region:   sarifRegion{StartLine: line},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "irfusionlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
