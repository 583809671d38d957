package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"busaware/internal/gateway"
	"busaware/internal/server"
	"busaware/internal/store"
)

// backendNames are the ring identities of the two backends. The
// gateway hashes backend addresses onto its ring, so fixed names (the
// gateway's client dials them to the real loopback listeners) give
// every run the same key-to-backend assignment regardless of which
// ports the listeners got.
var backendNames = []string{"backend-a.bench:80", "backend-b.bench:80"}

// backend is one in-process smpsimd: a server with one pool worker and
// a tier-2 store in its own directory.
type backend struct {
	srv *server.Server
	st  *store.Store
}

// env is the serving plane of one run: two backends behind a gateway,
// all on loopback listeners in this process, and the load generator's
// HTTP client.
type env struct {
	tr       *tracer
	backends []*backend
	gw       *gateway.Gateway
	gwURL    string
	client   *http.Client
	upstream *http.Transport

	servers []*http.Server
	serving sync.WaitGroup
}

// newEnv starts the serving plane, backend i with its tier-2 store in
// stores[i]. With a tracer, every handler and the gateway's upstream
// client are wrapped to record spans while the tracer is on.
func newEnv(stores []string, tr *tracer) (e *env, err error) {
	e = &env{tr: tr}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	dial := map[string]string{}
	var urls []string
	for i, name := range backendNames {
		st, err := store.Open(store.Config{Dir: stores[i]})
		if err != nil {
			return nil, err
		}
		b := &backend{srv: server.New(server.Config{Workers: 1, Store: st}), st: st}
		e.backends = append(e.backends, b)
		addr, err := e.serve(tr.wrap(spanServer, b.srv))
		if err != nil {
			return nil, err
		}
		dial[name] = addr
		urls = append(urls, "http://"+strings.TrimSuffix(name, ":80"))
	}
	var d net.Dialer
	e.upstream = &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := dial[addr]
			if !ok {
				return nil, fmt.Errorf("unknown backend %s", addr)
			}
			return d.DialContext(ctx, network, real)
		},
	}
	var rt http.RoundTripper = e.upstream
	if tr != nil {
		rt = roundTripper{t: tr, base: e.upstream}
	}
	// Probing is off: the prober's own client could not resolve the
	// ring names, and no backend fails during a run.
	e.gw, err = gateway.New(gateway.Config{
		Backends:      urls,
		ProbeInterval: -1,
		Client:        &http.Client{Transport: rt},
	})
	if err != nil {
		return nil, err
	}
	addr, err := e.serve(tr.wrap(spanGateway, e.gw))
	if err != nil {
		return nil, err
	}
	e.gwURL = "http://" + addr
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}}
	return e, nil
}

// ownStores gives each backend a tier-2 directory of its own under dir.
func ownStores(dir string) []string {
	var out []string
	for i := range backendNames {
		out = append(out, filepath.Join(dir, fmt.Sprintf("store-%d", i)))
	}
	return out
}

// wrap is handler wrapping that tolerates a nil tracer.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return t.handler(name, h)
}

// serve starts h on a fresh loopback listener and returns its address.
func (e *env) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	e.servers = append(e.servers, hs)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		hs.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// close shuts the plane down, front to back. Its files stay until the
// run ends, so deleting them cannot slow a later set-up.
func (e *env) close() {
	for i := len(e.servers) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.servers[i].Shutdown(ctx)
		cancel()
	}
	e.serving.Wait()
	if e.gw != nil {
		e.gw.Close()
	}
	for _, b := range e.backends {
		b.srv.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.upstream != nil {
		e.upstream.CloseIdleConnections()
	}
}

// reply is one /v1/simulate response as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// simulate sends one /v1/simulate request through the gateway. When
// traced, it records the client span for request ID req and stamps the
// trace header.
func (e *env) simulate(body []byte, req uint64, traced bool) (*reply, error) {
	r, err := http.NewRequest(http.MethodPost, e.gwURL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	var s span
	if traced {
		s = span{ID: e.tr.newID(), Req: req, Name: spanClient, Start: e.tr.now()}
		r.Header.Set(traceHeader, encodeTrace(req, s.ID))
	}
	resp, err := e.client.Do(r)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		s.End = e.tr.now()
		e.tr.record(s)
	}
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// sweep sends one /v1/sweep batch through the gateway and returns its
// NDJSON lines plus the time to the first line.
func (e *env) sweep(body []byte, req uint64, traced bool) ([]gateway.SweepLine, time.Duration, error) {
	r, err := http.NewRequest(http.MethodPost, e.gwURL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	r.Header.Set("Content-Type", "application/json")
	var s span
	if traced {
		s = span{ID: e.tr.newID(), Req: req, Name: spanClient, Start: e.tr.now()}
		r.Header.Set(traceHeader, encodeTrace(req, s.ID))
	}
	t0 := time.Now()
	resp, err := e.client.Do(r)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("sweep status %d", resp.StatusCode)
	}
	var lines []gateway.SweepLine
	var first time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if first == 0 {
			first = time.Since(t0)
		}
		var l gateway.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, 0, fmt.Errorf("sweep line: %w", err)
		}
		lines = append(lines, l)
	}
	if traced {
		s.End = e.tr.now()
		e.tr.record(s)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return lines, first, nil
}

// storeStats sums both backends' tier-2 counters.
func (e *env) storeStats() store.TierStats {
	var t store.TierStats
	for _, b := range e.backends {
		d := b.st.Stats().Disk
		t.Hits += d.Hits
		t.Misses += d.Misses
		t.VerifyFails += d.VerifyFails
		t.Puts += d.Puts
		t.Conflicts += d.Conflicts
	}
	return t
}

// cacheStats sums both backends' tier-1 counters.
func (e *env) cacheStats() server.CacheStats {
	var c server.CacheStats
	for _, b := range e.backends {
		s := b.srv.CacheStats()
		c.Hits += s.Hits
		c.Misses += s.Misses
		c.Conflicts += s.Conflicts
	}
	return c
}

// gatewayCounter scrapes one counter from the gateway's /metrics.
func (e *env) gatewayCounter(series string) (float64, error) {
	resp, err := e.client.Get(e.gwURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("gateway metrics: no series " + series)
}
