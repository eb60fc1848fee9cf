package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"irfusion/internal/core"
	"irfusion/internal/serve"
)

// cmdServe runs the long-lived analysis service: a bounded job queue
// of concurrent analyses behind an HTTP JSON API (see docs/SERVING.md
// and internal/serve). SIGINT/SIGTERM trigger a graceful shutdown
// that drains in-flight solves (bounded by drainBudget, after which
// running solver loops are cancelled mid-iteration).
//
// The obs flags mirror the batch subcommands: -manifest writes one
// session manifest at shutdown summarizing the serving process (each
// request additionally gets its own manifest attached to its job
// result), and -debug-addr serves live expvar counters and pprof.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	name := fs.String("name", "", "shard identity for cluster deployments (prefixes job ids, stamped into manifests)")
	workers := fs.Int("workers", 2, "job-queue worker concurrency (analyses in flight)")
	modelFile := fs.String("model-file", "", "trained checkpoint enabling fused mode")
	journalDir := fs.String("journal-dir", "", "write-ahead job journal directory (enables crash recovery; empty = off)")
	journalSync := fs.String("journal-sync", "", "journal fsync policy: always (default) or none")
	of := addObsFlags(fs)
	fs.Parse(args)

	cfg := serve.Config{
		Name:        *name,
		Workers:     *workers,
		JournalDir:  *journalDir,
		JournalSync: *journalSync,
	}
	if *modelFile != "" {
		f, err := os.Open(*modelFile)
		if err != nil {
			return err
		}
		analyzer, err := core.LoadAnalyzer(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Analyzer = analyzer
		log.Printf("fused mode enabled: %s (%s)", *modelFile, analyzer.Config.Describe())
	}

	_, finish := of.start("serve", map[string]any{
		"addr": *addr, "name": *name, "workers": *workers,
		"model_file": *modelFile, "journal_dir": *journalDir,
	})

	svc := serve.New(cfg)
	banner := fmt.Sprintf("(workers=%d); POST /v1/analyze, GET /healthz", *workers)
	if err := listenAndDrain("serve", *addr, svc.Handler(), svc.Close, banner); err != nil {
		return err
	}
	return finish()
}

// drainBudget bounds a graceful shutdown of serve and gateway: after
// SIGINT/SIGTERM, in-flight work has this long to finish before it is
// cancelled.
const drainBudget = 30 * time.Second

// listenAndDrain serves h on addr until SIGINT or SIGTERM, then stops
// accepting requests and drains through closeFn, both within
// drainBudget. banner follows the listen address in the startup log.
func listenAndDrain(name, addr string, h http.Handler, closeFn func(context.Context) error, banner string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	//irfusion:go-ok the listener lives as long as the process; Shutdown below ends it and errc joins it
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("%s on http://%s %s", name, ln.Addr(), banner)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining (budget %s)...", s, drainBudget)
	case err := <-errc:
		return fmt.Errorf("%s: %w", name, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := closeFn(ctx); err != nil {
		log.Printf("drain incomplete, in-flight work was cancelled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	return nil
}
