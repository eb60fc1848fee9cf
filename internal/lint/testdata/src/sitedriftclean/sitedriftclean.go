// Package faults (fixture) is a miniature fault registry that is
// fully consistent: every declared site is fired and listed in
// knownSites.
package faults

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

func use() {
	in := &Injector{}
	in.Fire(SiteAlpha, "")
	in.Fire(SiteBeta, "x")
}
