package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// An endpoint is one handler of the program served on a loopback TCP
// listener. stop shuts the listener down, then closes the handler's
// owner (the server or gateway behind it), and returns when both ended.
type endpoint struct {
	url  string
	stop func() error
}

// listen serves h on 127.0.0.1 and returns once the listener accepts.
func listen(h http.Handler, closeOwner func(context.Context) error) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, closeOwner(context.Background()))
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return errors.Join(err, closeOwner(ctx))
	}
	return &endpoint{url: "http://" + ln.Addr().String(), stop: stop}, nil
}

// A fleet is the set of servers one workload (or the traced pass) runs
// against: front is where the clients connect, shards are the analysis
// servers whose /metricsz is read (front itself when there is no
// gateway).
type fleet struct {
	front  *endpoint
	shards []*endpoint
	byName map[string]*endpoint // shards by the name the gateway knows them by
	all    []*endpoint          // stop order: gateway first, then shards
	tmpDir string               // journal directories; removed by stop
}

// startFleet starts nShards analysis servers, fronted by a gateway when
// nShards > 1. Every server gets the analyzer (nil: numerical only)
// and, when journaled, its own journal directory under a fresh
// temporary directory inside the working directory.
func startFleet(nShards int, an *analyzer, journaled bool) (*fleet, error) {
	f := &fleet{byName: map[string]*endpoint{}}
	if journaled {
		dir, err := tempDir("journal-")
		if err != nil {
			return nil, err
		}
		f.tmpDir = dir
	}
	var names, urls []string
	for i := 0; i < nShards; i++ {
		name := ""
		if nShards > 1 {
			name = fmt.Sprintf("s%d", i)
		}
		h, closeServer := newServer(name, an, f.journalDir(i))
		ep, err := listen(h, closeServer)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.shards = append(f.shards, ep)
		f.byName[name] = ep
		f.all = append(f.all, ep)
		names, urls = append(names, name), append(urls, ep.url)
	}
	f.front = f.shards[0]
	if nShards > 1 {
		h, closeGateway, err := newGateway(names, urls)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		ep, err := listen(h, closeGateway)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.front = ep
		f.all = append([]*endpoint{ep}, f.all...)
	}
	return f, nil
}

// tmpRoot holds journal directories while a run lasts. It is relative
// to the working directory, so the benchmark writes only inside its
// checkout, and is listed in .gitignore.
const tmpRoot = ".bench_tmp"

// tempDir makes a fresh directory under tmpRoot.
func tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, pattern)
}

// journalDir is shard i's journal directory, empty when not journaled.
func (f *fleet) journalDir(i int) string {
	if f.tmpDir == "" {
		return ""
	}
	return filepath.Join(f.tmpDir, fmt.Sprintf("s%d", i))
}

func (f *fleet) stop() error {
	var err error
	for _, ep := range f.all {
		err = errors.Join(err, ep.stop())
	}
	f.all = nil
	if f.tmpDir != "" {
		err = errors.Join(err, os.RemoveAll(f.tmpDir))
	}
	return err
}

// newClient returns an HTTP client that keeps at most conns keep-alive
// connections to a host and opens no more than that.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// metricsz is the part of GET /metricsz the benchmark reads. The
// counters are process-global (every server of the process reports the
// same ones); the cache statistics belong to the answering server.
type metricsz struct {
	Counters map[string]int64 `json:"counters"`
	Cache    struct {
		Bytes     int64 `json:"bytes"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Stores    int64 `json:"stores"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

// snapshot reads /metricsz of every shard and returns the counters
// once and the cache statistics summed over the shards.
func (f *fleet) snapshot(client *http.Client) (metricsz, error) {
	var sum metricsz
	for _, ep := range f.shards {
		resp, err := client.Get(ep.url + "/metricsz")
		if err != nil {
			return sum, err
		}
		var m metricsz
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("decode /metricsz: %w", err)
		}
		sum.Counters = m.Counters
		sum.Cache.Bytes += m.Cache.Bytes
		sum.Cache.Hits += m.Cache.Hits
		sum.Cache.Misses += m.Cache.Misses
		sum.Cache.Stores += m.Cache.Stores
		sum.Cache.Evictions += m.Cache.Evictions
	}
	return sum, nil
}
