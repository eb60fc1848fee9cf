package obs

import (
	"expvar"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"
)

// publishOnce guards the expvar registration (expvar.Publish panics
// on duplicate names).
var publishOnce sync.Once

// ServeDebug starts the optional debug HTTP endpoint on addr
// (e.g. "localhost:6060", or "127.0.0.1:0" for an ephemeral port) and
// returns the server plus the bound address. The endpoint is off
// unless a front end calls this — it is the --debug-addr flag of
// cmd/irfusion and cmd/experiments.
//
// Routes:
//
//	/debug/vars    expvar (includes the irfusion global counters)
//	/debug/pprof/  CPU/heap/goroutine profiles and execution traces
//
// The server runs until the process exits or Close is called; errors
// after startup are dropped (debug-only traffic).
func ServeDebug(addr string) (*http.Server, string, error) {
	publishOnce.Do(func() {
		expvar.Publish("irfusion_counters", expvar.Func(func() any {
			return GlobalCounters()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	//irfusion:go-ok the debug listener runs until the caller closes the returned server
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
