package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"irfusion/internal/cluster"
)

// cmdGateway runs the stateless cluster gateway in front of a fleet
// of `irfusion serve -name ...` shards (see docs/CLUSTER.md and
// internal/cluster). It admission-checks requests at the edge, routes
// each deck to the shard owning its cache fingerprint on a consistent
// ring, probes shard health to take failing shards out of rotation,
// and hands failed forwards to the ring successor. SIGINT/SIGTERM trigger
// a graceful drain of in-flight forwards.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8090", "listen address")
	shardList := fs.String("shards", "",
		"comma-separated shard fleet, name=url pairs (e.g. 'a=http://host1:8080,b=http://host2:8080')")
	probeInterval := fs.Duration("probe-interval", time.Second, "shard health-probe period; <= 0 means the 1s default")
	of := addObsFlags(fs)
	fs.Parse(args)

	shards, err := parseShards(*shardList)
	if err != nil {
		return err
	}

	_, finish := of.start("gateway", map[string]any{
		"addr": *addr, "shards": *shardList,
		"probe_interval": probeInterval.String(),
	})

	gw, err := cluster.New(cluster.Config{Shards: shards, ProbeInterval: *probeInterval})
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("routing %d shards; POST /v1/analyze, GET /v1/cluster", len(shards))
	if err := listenAndDrain("gateway", *addr, gw.Handler(), gw.Close, banner); err != nil {
		return err
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
