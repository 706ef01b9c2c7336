package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by benchmark
// code around its calls into the program. Spans of one request share the
// request's ID: the client span carries it as ID, the handler span as
// Parent.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Layer   string         `json:"layer"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span under parent (0 for a root) and returns its ID.
func (r *recorder) add(parent int64, layer, name string, start time.Time, dur time.Duration, attrs map[string]any) int64 {
	if r == nil {
		return 0
	}
	id := r.ids.Add(1)
	s := span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		StartUs: float64(start.Sub(r.epoch).Nanoseconds()) / 1e3,
		DurUs:   float64(dur.Nanoseconds()) / 1e3,
		Attrs:   attrs,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// requestIDHeader carries the generator's request ID to the handler
// middleware, so the handler span joins the client span of its request.
const requestIDHeader = "X-Request-ID"

// handlerSpan is what the middleware observed for one request.
type handlerSpan struct {
	route  string
	start  time.Time
	dur    time.Duration
	status int
	bytes  int
}

// handlerTable is the benchmark-owned middleware around the server's
// handler: it times each request inside the handler, keyed by request ID.
type handlerTable struct {
	mu   sync.Mutex
	byID map[int64]handlerSpan
}

func newHandlerTable() *handlerTable {
	return &handlerTable{byID: map[int64]handlerSpan{}}
}

func (t *handlerTable) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		hs := handlerSpan{route: r.Method + " " + r.URL.Path, start: start, dur: time.Since(start),
			status: cw.status, bytes: cw.bytes}
		t.mu.Lock()
		t.byID[id] = hs
		t.mu.Unlock()
	})
}

func (t *handlerTable) get(id int64) (handlerSpan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs, ok := t.byID[id]
	return hs, ok
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}
