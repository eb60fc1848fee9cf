// Package faults (fixture) is a miniature fault registry seeding
// sitedrift violations: a typo'd Fire site, a dead declared site, a
// constant missing from knownSites, and a ghost knownSites entry. The
// package is deliberately named faults — the sitedrift rule keys its
// registry checks on that name, which is what lets this fixture exist
// without touching the real internal/faults.
package faults

const (
	SiteGood     = "fix.good"
	SiteDead     = "fix.dead"     // declared, never fired
	SiteUnlisted = "fix.unlisted" // fired, but missing from knownSites
)

var knownSites = map[string]bool{
	SiteGood:    true,
	"fix.ghost": true, // matches no Site* constant
}

type Injector struct{}

func (in *Injector) Fire(site, label string) {}

func use() {
	in := &Injector{}
	in.Fire(SiteGood, "")
	in.Fire(SiteUnlisted, "")
	in.Fire("fix.typo", "") // no such Site* constant
}
