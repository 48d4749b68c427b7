package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"semblock/internal/record"
)

// phaseCount tallies the requests of one workload phase.
type phaseCount struct {
	Attempted int64 `json:"attempted"`
	OK        int64 `json:"ok"`
	Failed    int64 `json:"failed"`
}

// ledger counts every workload request by phase. A request fails on a
// transport error, a timeout or any non-2xx answer (503 drain_busy
// included).
type ledger struct {
	mu     sync.Mutex
	phases map[string]*phaseCount
	order  []string
}

func newLedger() *ledger { return &ledger{phases: make(map[string]*phaseCount)} }

func (l *ledger) record(phase string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pc := l.phases[phase]
	if pc == nil {
		pc = &phaseCount{}
		l.phases[phase] = pc
		l.order = append(l.order, phase)
	}
	pc.Attempted++
	if err != nil {
		pc.Failed++
	} else {
		pc.OK++
	}
}

func (l *ledger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.phases {
		attempted += pc.Attempted
		failed += pc.Failed
	}
	return attempted, failed
}

// conn is one of the load generator's HTTP connections: a transport
// limited to a single TCP connection, used by one goroutine at a time.
type conn struct {
	base   string
	hc     *http.Client // bounded requests
	stream *http.Client // SSE, bounded by its context instead
	led    *ledger
	tr     *tracer
}

// requestTimeout bounds every non-streaming request; a timeout counts as a
// failed request.
const requestTimeout = 120 * time.Second

func newConn(base string, led *ledger, tr *tracer) *conn {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{
		base:   base,
		hc:     &http.Client{Transport: t, Timeout: requestTimeout},
		stream: &http.Client{Transport: t},
		led:    led,
		tr:     tr,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// apiError is a non-2xx answer.
type apiError struct {
	status int
	body   string
}

func (e *apiError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request, counts it under phase, records a client span named
// "http.<op>" carrying the server's trace ID, and decodes a 2xx JSON answer
// into out (when non-nil). It returns the span ID (-1 untraced).
func (c *conn) do(phase, op, method, path, ctype string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return -1, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
			err = &apiError{status: resp.StatusCode, body: strings.TrimSpace(string(data))}
		}
	}
	end := time.Now()
	if err == nil && out != nil {
		if uerr := json.Unmarshal(data, out); uerr != nil {
			err = fmt.Errorf("decode %s %s: %w", method, path, uerr)
		}
	}
	c.led.record(phase, err)
	sid := -1
	if c.tr != nil {
		traceID := ""
		if resp != nil {
			traceID = resp.Header.Get("X-Semblock-Trace")
		}
		sid = c.tr.add("http."+op, traceID, -1, start, end)
	}
	if err != nil {
		return sid, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return sid, nil
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are encoded
	}
	return b
}

// Wire shapes of the answers the benchmark reads.

type batchResp struct {
	Pairs  [][2]record.ID `json:"pairs"`
	Cursor int            `json:"cursor"`
	Next   int            `json:"next_cursor"`
	Total  int            `json:"emitted_total"`
}

func (b *batchResp) recordPairs() []record.Pair {
	out := make([]record.Pair, len(b.Pairs))
	for i, p := range b.Pairs {
		out[i] = record.MakePair(p[0], p[1])
	}
	return out
}

type statsResp struct {
	Records int `json:"records"`
	Pairs   int `json:"pairs"`
}

type ingestResp struct {
	IDs   []record.ID `json:"ids"`
	Count int         `json:"count"`
}

type resolveResp struct {
	PairsScored int64 `json:"pairs_scored"`
	NumMatches  int   `json:"num_matches"`
	Matches     []struct {
		Left  record.ID `json:"left"`
		Right record.ID `json:"right"`
	} `json:"matches"`
	TraceID string `json:"trace_id"`
}

type traceRecord struct {
	TraceID    string `json:"trace_id"`
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Spans      []struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"duration_ns"`
	} `json:"spans"`
}

// API calls.

func (c *conn) ingest(phase, coll string, body []byte) (ingestResp, int, error) {
	var out ingestResp
	sid, err := c.do(phase, "ingest", http.MethodPost, "/v1/collections/"+coll+"/records", "application/x-ndjson", body, &out)
	return out, sid, err
}

func (c *conn) drain(phase, coll, group string, wait time.Duration) (batchResp, error) {
	var out batchResp
	path := fmt.Sprintf("/v1/collections/%s/consumers/%s/drain", coll, group)
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	_, err := c.do(phase, "drain", http.MethodGet, path, "", nil, &out)
	return out, err
}

func (c *conn) peek(phase, coll, group string) (batchResp, error) {
	var out batchResp
	_, err := c.do(phase, "peek", http.MethodGet, fmt.Sprintf("/v1/collections/%s/consumers/%s/drain?peek=true", coll, group), "", nil, &out)
	return out, err
}

func (c *conn) ack(phase, coll, group string, cursor int) error {
	_, err := c.do(phase, "ack", http.MethodPost, fmt.Sprintf("/v1/collections/%s/consumers/%s/ack", coll, group),
		"application/json", jsonBody(map[string]int{"cursor": cursor}), nil)
	return err
}

func (c *conn) resolve(phase, coll string, req any) (resolveResp, int, error) {
	var out resolveResp
	sid, err := c.do(phase, "resolve", http.MethodPost, "/v1/collections/"+coll+"/resolve", "application/json", jsonBody(req), &out)
	return out, sid, err
}

func (c *conn) stats(phase, coll string) (statsResp, error) {
	var out statsResp
	_, err := c.do(phase, "stats", http.MethodGet, "/v1/collections/"+coll, "", nil, &out)
	return out, err
}

// metrics scrapes /metrics into "family{labels}" → value.
func (c *conn) metrics(phase string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = &apiError{status: resp.StatusCode}
		}
	}
	c.led.record(phase, err)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, perr := strconv.ParseFloat(line[i+1:], 64)
		if perr != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (c *conn) traces(phase string) ([]traceRecord, error) {
	var out struct {
		Traces []traceRecord `json:"traces"`
	}
	_, err := c.do(phase, "traces", http.MethodGet, "/debug/traces", "", nil, &out)
	return out.Traces, err
}

// sse reads a consumer group's server-sent-event stream until ctx ends,
// handing each event to fn. The stream is one request; ending it by
// cancelling ctx is its normal, successful end.
func (c *conn) sse(ctx context.Context, phase, coll, group string, fn func(event string, data []byte, at time.Time) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/collections/%s/consumers/%s/stream", c.base, coll, group), nil)
	if err != nil {
		return err
	}
	resp, err := c.stream.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		err = &apiError{status: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	if err != nil {
		c.led.record(phase, err)
		return fmt.Errorf("open SSE stream: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	var event string
	for err == nil && sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			err = fn(event, line[len("data: "):], time.Now())
		}
	}
	if err == nil && ctx.Err() == nil {
		err = sc.Err()
		if err == nil {
			err = fmt.Errorf("SSE stream ended early")
		}
	}
	c.led.record(phase, err)
	return err
}
