package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// The traced pass records the benchmark's own spans around the calls
// into the system: the client a client.request span per request, and a
// wrapping http.Handler a child server.handler span around the served
// handler tree, joined by X-Request-ID. Spans inside server/memnn are a
// later change.

// span is one recorded interval. Times are ns since the log was made.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	Parent    int    `json:"parent"` // 0 = root; filled when the log is written
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
}

// spanLog keeps spans in memory, in a buffer sized up front so that
// recording is one atomic add and one store; spans past the capacity
// are counted, not kept.
type spanLog struct {
	t0      time.Time
	on      atomic.Bool
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64
}

const spanCap = 1 << 17

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, spanCap)}
}

func (l *spanLog) add(name, reqID string, start, end time.Time) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = span{ID: int(i) + 1, Name: name, RequestID: reqID,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()}
}

// recorded returns the spans kept so far. Call once recording stopped.
func (l *spanLog) recorded() []span {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// handler wraps next with a server.handler span while the log is on.
func (l *spanLog) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		l.add("server.handler", r.Header.Get("X-Request-ID"), start, time.Now())
	})
}

// selfTimes links each server.handler span to the client.request span
// of the same request and returns, in µs, the handler durations and the
// client spans' self times (duration minus the child's).
func (l *spanLog) selfTimes() (handler, clientSelf []float64) {
	spans := l.recorded()
	parent := make(map[string]*span, len(spans)/2)
	for i := range spans {
		if spans[i].Name == "client.request" {
			parent[spans[i].RequestID] = &spans[i]
		}
	}
	for i := range spans {
		s := &spans[i]
		if p := parent[s.RequestID]; p != nil && s.Name == "server.handler" {
			s.Parent = p.ID
			d := float64(s.End - s.Start)
			handler = append(handler, d/1e3)
			clientSelf = append(clientSelf, (float64(p.End-p.Start)-d)/1e3)
		}
	}
	return handler, clientSelf
}

// write stores the spans as JSON at path, creating its directory.
func (l *spanLog) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, l.dropped.Load(), l.recorded()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
