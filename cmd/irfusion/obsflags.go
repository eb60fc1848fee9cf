package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"irfusion/internal/nn"
	"irfusion/internal/obs"
)

// obsFlags carries the observability flags shared by every analysis
// subcommand: -manifest writes the structured JSON run manifest,
// -debug-addr serves live expvar counters and pprof profiles for the
// duration of the run.
type obsFlags struct {
	manifest  *string
	debugAddr *string
}

// addObsFlags registers -manifest and -debug-addr on a subcommand's
// flag set.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		manifest:  fs.String("manifest", "", "write a JSON run manifest to this file"),
		debugAddr: fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)"),
	}
}

// start creates the run recorder (and the debug server when
// requested) and returns a context carrying it, plus a finish function
// that prints the end-of-run summary table to stderr and writes the
// manifest when -manifest was given. config is embedded verbatim in
// the manifest's "config" field; a map also gets the GEMM leaf of this
// process (gemm_kernel) beside the caller's keys, because the stage
// times of two manifests compare only when it agrees.
func (o *obsFlags) start(kind string, config any) (context.Context, func() error) {
	if m, ok := config.(map[string]any); ok {
		m["gemm_kernel"] = nn.Kernel()
	}
	rec := obs.NewRecorder()
	var srv *http.Server
	if *o.debugAddr != "" {
		s, addr, err := obs.ServeDebug(*o.debugAddr)
		if err != nil {
			log.Printf("debug server: %v", err)
		} else {
			srv = s
			log.Printf("debug server at http://%s/debug/vars and /debug/pprof/", addr)
		}
	}
	return obs.WithRecorder(context.Background(), rec), func() error {
		if srv != nil {
			defer srv.Close()
		}
		// A CLI process is one run: its manifest carries the process's
		// global counters (nn.gemm_calls, circuit.networks, cache.*).
		m := rec.Manifest(kind, config)
		for name, v := range obs.GlobalCounters() {
			if v != 0 {
				m.Counters[name] += v
			}
		}
		fmt.Fprint(os.Stderr, m.Summary())
		if *o.manifest != "" {
			if err := m.WriteFile(*o.manifest); err != nil {
				return fmt.Errorf("manifest: %w", err)
			}
			log.Printf("wrote %s", *o.manifest)
		}
		return nil
	}
}
