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
	"strings"
	"syscall"
	"time"

	"irfusion/internal/cluster"
)

// cmdGateway runs the stateless cluster gateway in front of a fleet
// of `irfusion serve -name ...` shards (see docs/CLUSTER.md and
// internal/cluster). It admission-checks requests at the edge, routes
// each deck to the shard owning its cache fingerprint on a consistent
// ring, probes shard health into per-shard circuit breakers, and
// hands failed forwards to the ring successor. SIGINT/SIGTERM trigger
// a graceful drain of in-flight forwards.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8090", "listen address")
	shardList := fs.String("shards", "",
		"comma-separated shard fleet, name=url pairs (e.g. 'a=http://host1:8080,b=http://host2:8080')")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the hash ring")
	maxBody := fs.Int64("max-body", 8<<20, "request-body admission limit in bytes (set at or below the shards' limit)")
	handoffs := fs.Int("handoffs", 0, "max ring-successor retries per request (0 = all successors)")
	probeInterval := fs.Duration("probe-interval", time.Second, "shard health-probe period")
	probeTimeout := fs.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive probe/forward failures that open a shard's breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open retry")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight forwards")
	of := addObsFlags(fs)
	fs.Parse(args)

	shards, err := parseShards(*shardList)
	if err != nil {
		return err
	}

	_, finish := of.start("gateway", map[string]any{
		"addr": *addr, "shards": *shardList, "vnodes": *vnodes,
		"max_body": *maxBody, "handoffs": *handoffs,
		"probe_interval": probeInterval.String(),
	})

	gw, err := cluster.New(cluster.Config{
		Shards:           shards,
		VNodes:           *vnodes,
		MaxBodyBytes:     *maxBody,
		MaxHandoffs:      *handoffs,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	//irfusion:go-ok the listener lives as long as the process; Shutdown below ends it and errc joins it
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("gateway on http://%s routing %d shards; POST /v1/analyze, GET /v1/cluster",
		ln.Addr(), len(shards))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining (budget %s)...", s, *drain)
	case err := <-errc:
		return fmt.Errorf("gateway: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := gw.Close(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	return finish()
}

// parseShards turns the -shards flag value into a fleet spec. The
// flag format is deliberately positional-free: order never matters
// because ring placement depends only on the shard names.
func parseShards(list string) ([]cluster.ShardSpec, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("gateway: -shards is required (name=url,name=url,...)")
	}
	var specs []cluster.ShardSpec
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("gateway: bad shard spec %q, want name=url", part)
		}
		specs = append(specs, cluster.ShardSpec{Name: name, URL: url})
	}
	return specs, nil
}
