package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"

	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/serve/metrics"
)

// The server configuration every workload runs against: the
// north-star pipeline (audit warn, both SFI verifiers, SFI on) with
// the omniserved defaults for queue and cache, one worker per CPU, the
// per-client rate limiter opened wide, and no interpreter parity
// check on timed jobs.
const (
	queueCap    = 64
	cacheMiB    = 64
	verifyMode  = mcache.VerifyBoth
	auditMode   = netserve.AuditWarn
	parityCheck = false
)

func workers() int { return runtime.NumCPU() }

// server is an in-process omniserved: the serve worker pool behind
// the netserve HTTP handler on a loopback listener.
type server struct {
	pool *serve.Server
	base string
	hs   *http.Server
	ln   net.Listener
	http *http.Client
	done chan struct{}
}

func bootServer() (*server, error) {
	cache := mcache.NewWith(mcache.Config{
		Limit:  cacheMiB << 20,
		Verify: verifyMode,
		Logf:   func(string, ...any) {},
	})
	pool := serve.New(serve.Config{Workers: workers(), QueueCap: queueCap, Cache: cache})
	h, err := netserve.New(netserve.Config{
		Server: pool,
		Rate:   1e9,
		Burst:  1e9,
		Audit:  netserve.AuditConfig{Mode: auditMode},
		Logf:   func(string, ...any) {},
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		pool: pool,
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		ln:   ln,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers()}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *server) client() *netserve.Client {
	return &netserve.Client{Base: s.base, HTTP: s.http}
}

// counters reads the server's counter snapshot over /v1/metrics, the
// way an operator sees it.
func (s *server) counters() (*metrics.Snapshot, error) {
	return s.client().Metrics()
}

// close stops the listener, waits for the serving goroutine, and
// drains the worker pool.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.done
	s.http.CloseIdleConnections()
	s.pool.Close()
}
