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
// that drains in-flight solves (bounded by -drain, after which
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
	queue := fs.Int("queue", 16, "bounded job-queue depth; beyond it submissions get 503")
	maxBody := fs.Int64("max-body", 8<<20, "request-body admission limit in bytes")
	maxSize := fs.Int("max-size", 256, "largest die size / raster resolution a request may ask for")
	timeout := fs.Duration("timeout", 2*time.Minute, "default per-request timeout (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight solves")
	modelFile := fs.String("model-file", "", "trained checkpoint enabling fused mode")
	noCache := fs.Bool("no-cache", false, "disable the per-process artifact cache (every request runs cold)")
	cacheBytes := fs.Int64("cache-bytes", 0, "artifact-cache size bound in bytes (0 = default)")
	cacheTTL := fs.Duration("cache-ttl", 0, "artifact-cache entry lifetime (0 = default)")
	journalDir := fs.String("journal-dir", "", "write-ahead job journal directory (enables crash recovery; empty = off)")
	journalSync := fs.String("journal-sync", "", "journal fsync policy: always (default) or none")
	ckptEvery := fs.Int("checkpoint-every", 0, "solver checkpoint interval in PCG iterations (0 = default 32, negative = off)")
	of := addObsFlags(fs)
	fs.Parse(args)

	cfg := serve.Config{
		Name:            *name,
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxBodyBytes:    *maxBody,
		MaxDesignSize:   *maxSize,
		DefaultTimeout:  *timeout,
		DisableCache:    *noCache,
		CacheBytes:      *cacheBytes,
		CacheTTL:        *cacheTTL,
		JournalDir:      *journalDir,
		JournalSync:     *journalSync,
		CheckpointEvery: *ckptEvery,
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
		"addr": *addr, "name": *name, "workers": *workers, "queue": *queue,
		"max_body": *maxBody, "max_size": *maxSize,
		"timeout": timeout.String(), "model_file": *modelFile,
		"cache": !*noCache, "journal_dir": *journalDir,
	})

	svc := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	//irfusion:go-ok the listener lives as long as the process; Shutdown below ends it and errc joins it
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("serving on http://%s (workers=%d queue=%d); POST /v1/analyze, GET /healthz",
		ln.Addr(), *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining (budget %s)...", s, *drain)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(ctx); err != nil {
		log.Printf("drain incomplete, in-flight solves were cancelled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	return finish()
}
