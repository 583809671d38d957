package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanClient   = "client"           // load generator: request sent to body read
	spanGateway  = "gateway.handler"  // gateway http.Handler
	spanUpstream = "gateway.upstream" // gateway's backend round trip, body included
	spanServer   = "server.handler"   // backend http.Handler
	spanFigure   = "figures.figure"   // one figure function of a figure set
	spanSet      = "figures.set"      // one full figure set
)

// traceHeader carries "<request id>-<parent span id>" across the HTTP
// hops the benchmark can see: client to gateway, gateway to backend.
const traceHeader = "X-Bench-Trace"

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tag is the backend of a gateway.upstream span, the figure of a
	// figures.figure span.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. Recording is off unless on is set, so the same wrappers serve
// the untraced and the traced half of a traced run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOn switches span recording (no-op on a nil tracer).
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCtx is the trace position carried in a request context.
type traceCtx struct{ req, span uint64 }

type traceKey struct{}

func encodeTrace(req, parent uint64) string {
	return strconv.FormatUint(req, 16) + "-" + strconv.FormatUint(parent, 16)
}

func decodeTrace(h string) (req, parent uint64) {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseUint(a, 16, 64)
	parent, _ = strconv.ParseUint(b, 16, 64)
	return req, parent
}

// handler wraps h so each request it serves records a span named name,
// parented on the span named in the incoming trace header, and carries
// its own position in the request context for the RoundTripper.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, parent := decodeTrace(r.Header.Get(traceHeader))
		s := span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: t.now()}
		ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{req: req, span: s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.record(s)
	})
}

// roundTripper records a span for every upstream call whose context
// carries a trace position, and stamps the request ID and its own span
// ID into the outgoing trace header for the backend's handler wrapper.
// The span ends when the response body is closed or fully read.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	tc, ok := r.Context().Value(traceKey{}).(traceCtx)
	if !ok || !rt.t.on.Load() {
		return rt.base.RoundTrip(r)
	}
	s := span{ID: rt.t.newID(), Parent: tc.span, Req: tc.req, Name: spanUpstream, Start: rt.t.now(), Tag: r.URL.Host}
	out := r.Clone(r.Context())
	out.Header.Set(traceHeader, encodeTrace(tc.req, s.ID))
	resp, err := rt.base.RoundTrip(out)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() {
		s.End = rt.t.now()
		rt.t.record(s)
	}}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.finish)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// covered is the total length of the union of the intervals, clipped
// to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur0, cur1 := int64(0), int64(-1)
	flush := func() {
		if cur1 > cur0 {
			total += cur1 - cur0
		}
	}
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > cur1 {
			flush()
			cur0, cur1 = a, b
		} else if b > cur1 {
			cur1 = b
		}
	}
	flush()
	return total
}

// selfTimes computes, for every span, its duration minus the part of
// it that its child spans cover, grouped by span name, in
// microseconds.
func selfTimes(spans []span) map[string][]float64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.dur() - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// durations groups span durations by name, in microseconds.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}
