package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine.
// It is hand-rolled rather than net/http's client because the client
// shares this box's two cores with the server under test: a request is
// one Write of bytes assembled in a reused buffer and a response is
// read into a reused buffer, so the client costs a few microseconds
// and allocates nothing per request.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	out  []byte // assembled request
	body []byte // request body scratch, then response body
}

// dials counts every TCP connection the benchmark's clients open, so a
// run can assert it never used more than its configured connections.
var dials atomic.Int64

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	dials.Add(1)
	return &conn{c: c, r: bufio.NewReaderSize(c, 16<<10), out: make([]byte, 0, 8<<10), body: make([]byte, 0, 8<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// Request paths are fixed per table, so the request line and the
// constant headers are one precomputed prefix; traced is the same
// request with ?trace=1.
type route struct {
	path          string
	plain, traced []byte
}

func newRoute(path string) route {
	head := func(p string) []byte {
		return []byte("POST " + p + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: ")
	}
	return route{path: path, plain: head(path), traced: head(path + "?trace=1")}
}

// do sends body behind a route's prefix and reads the whole response.
// The returned body aliases the connection's buffer and is valid until
// the next call.
func (c *conn) do(prefix, body []byte) (status int, resp []byte, err error) {
	c.out = append(c.out[:0], prefix...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err = c.c.Write(c.out); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	return c.readResponse()
}

// ask sends one query and checks its answer, returning how long the
// reply took.
func (c *conn) ask(prefix, body []byte, wantSum, wantCount int64) (time.Duration, error) {
	start := time.Now()
	status, resp, err := c.do(prefix, body)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("status %d: %s", status, truncate(resp))
	}
	sum, count, err := decodeAnswer(resp)
	if err != nil || sum != wantSum || count != wantCount {
		return 0, fmt.Errorf("got sum=%d count=%d, want sum=%d count=%d (%v)", sum, count, wantSum, wantCount, err)
	}
	return took, nil
}

func (c *conn) readResponse() (status int, resp []byte, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, "content-length:"):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len("content-length:"):])))
			if err != nil {
				return 0, nil, fmt.Errorf("content-length %q: %w", line, err)
			}
		case hasPrefixFold(line, "transfer-encoding:"):
			chunked = bytes.Contains(bytes.ToLower(line), []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, fmt.Errorf("read chunk size: %w", err)
			}
			n, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, fmt.Errorf("chunk size %q: %w", line, perr)
			}
			if err = c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response has neither content-length nor chunked encoding")
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	if _, err := io.ReadFull(c.r, c.body[at:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

func hasPrefixFold(line []byte, lower string) bool {
	if len(line) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		b := line[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != lower[i] {
			return false
		}
	}
	return true
}

// --- request bodies, appended into a caller-owned buffer ---

func appendRangeBody(b []byte, lo, hi int64) []byte {
	b = append(b, `{"pred":{"kind":"range","lo":`...)
	b = strconv.AppendInt(b, lo, 10)
	b = append(b, `,"hi":`...)
	b = strconv.AppendInt(b, hi, 10)
	return append(b, "}}"...)
}

func appendPointBody(b []byte, v int64) []byte {
	b = append(b, `{"pred":{"kind":"point","value":`...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, "}}"...)
}

// appendConjBody is the conj workload's one query shape:
// b IN [lo, hi] AND c >= cmin, aggregating column a.
func appendConjBody(b []byte, lo, hi, cmin int64) []byte {
	b = append(b, `{"predicates":[{"col":"b","kind":"range","lo":`...)
	b = strconv.AppendInt(b, lo, 10)
	b = append(b, `,"hi":`...)
	b = strconv.AppendInt(b, hi, 10)
	b = append(b, `},{"col":"c","kind":"atleast","value":`...)
	b = strconv.AppendInt(b, cmin, 10)
	return append(b, `}],"target":"a"}`...)
}

// appendRunBody is an append of n consecutive values first, first+1, …
func appendRunBody(b []byte, first int64, n int) []byte {
	b = append(b, `{"values":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, first+int64(i), 10)
	}
	return append(b, "]}"...)
}

// --- response decoding ---

// reply is what verification needs from a query or append response.
type reply struct {
	Sum      int64 `json:"sum"`
	Count    int64 `json:"count"`
	Appended int   `json:"appended"`
	Stats    struct {
		ShardsScanned int `json:"shards_scanned"`
		ShardsPruned  int `json:"shards_pruned"`
	} `json:"stats"`
	Trace *obs.TraceJSON `json:"trace"`
}

// decodeAnswer extracts sum and count from a query response. The
// server's encoder emits them first, so the usual case is a prefix
// scan with no allocation; any other shape (a later encoder may order
// fields differently) falls back to encoding/json.
func decodeAnswer(body []byte) (sum, count int64, err error) {
	if rest, ok := bytes.CutPrefix(body, []byte(`{"sum":`)); ok {
		var n int
		if sum, n, ok = scanInt(rest); ok {
			if rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"count":`)); ok {
				if count, _, ok = scanInt(rest); ok {
					return sum, count, nil
				}
			}
		}
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, fmt.Errorf("decode response %q: %w", truncate(body), err)
	}
	return r.Sum, r.Count, nil
}

// scanInt parses a leading decimal integer, returning its length.
func scanInt(b []byte) (v int64, n int, ok bool) {
	neg := false
	if n < len(b) && b[n] == '-' {
		neg = true
		n++
	}
	start := n
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + int64(b[n]-'0')
		n++
	}
	if n == start || n-start > 18 {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, n, true
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}
