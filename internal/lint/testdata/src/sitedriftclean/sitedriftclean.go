// Package faults (fixture) is a miniature fault registry that is
// fully consistent: every declared site is fired and listed in
// knownSites, and the counter read is registered.
package faults

import "irfusion/internal/obs"

const (
	SiteAlpha = "clean.alpha"
	SiteBeta  = "clean.beta"
)

var knownSites = map[string]bool{
	SiteAlpha: true,
	SiteBeta:  true,
}

type Injector struct{}

func (in *Injector) Fire(site, label string) {}

func use() int64 {
	in := &Injector{}
	in.Fire(SiteAlpha, "")
	in.Fire(SiteBeta, "x")
	obs.GlobalCounter("clean.counter").Inc()
	return obs.CounterValue("clean.counter")
}
