package metrics

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the HTTP surface behind `alive -debug-addr`, built to
// be reused by a future long-running service: it owns its own mux (so
// it composes with binaries that also use http.DefaultServeMux) and
// serves
//
//	/metrics       — whatever metrics writes, in Prometheus text format
//	/debug/status  — live run status as JSON (whatever status() returns)
//	/debug/pprof/* — the standard runtime profiles
//
// The listener is bound synchronously in NewDebugServer, so ":0" works
// for tests: Addr reports the resolved address before any request
// arrives.
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewDebugServer binds addr and starts serving. metrics writes the
// /metrics body; status may be nil, in which case /debug/status serves
// an empty object.
func NewDebugServer(addr string, metrics func(io.Writer) error, status func() any) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A failed write means the scraper went away; no one is left to
		// report it to.
		_ = metrics(w)
	})
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = struct{}{}
		if status != nil {
			v = status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &DebugServer{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return d, nil
}

// Addr is the resolved listen address (host:port).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and waits for the serve loop to exit.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
