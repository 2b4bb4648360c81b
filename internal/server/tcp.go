// Wire front-end: a newline-delimited JSON request/response protocol over
// TCP, plus an HTTP /metrics endpoint in the Prometheus text format.
//
// One line, one transaction:
//
//	→ {"id":7,"ops":[{"op":"cmp","ks":"acct","key":1,"cmp":"gte","val":50},
//	                 {"op":"inc","ks":"acct","key":1,"val":-50},
//	                 {"op":"inc","ks":"acct","key":2,"val":50}]}
//	← {"id":7,"ok":true,"guard":true}
//
// "ok" is commitment, "guard" that every cmp held (writes applied); reads
// come back in op order. Requests on one connection execute in order; open
// many connections for concurrency (the loadgen simulates thousands).
//
// A request line is read exactly as json.Unmarshal reads it into a
// WireRequest: one object, whose "id" is an unsigned integer and whose "ops"
// is an array of objects with string "op", "ks" and "cmp", unsigned "key"
// and signed "val". Whitespace and key order are free; unknown keys are
// checked and skipped; null leaves a field unset; a repeated key overwrites
// field by field; keys match case-insensitively; strings take JSON escapes;
// integers take no fraction or exponent and must fit their type; nesting
// stops at depth 10000; nothing but whitespace may follow the object. A line
// that breaks these rules is answered with id 0 and an error starting "bad
// request:"; the text after that prefix describes the fault in the codec's
// own words, not encoding/json's, and is not part of the protocol. An
// unknown op or comparison is answered with the line's id and
// the ParseOpCode or ParseCmp error. A line longer than 1 MiB gets one "bad
// request" reply, and then the connection closes. Responses are written
// byte for byte as json.Encoder wrote WireResponse. The codec itself is
// hand-written (wire.go); encoding/json appears only in the tests, as the
// reference they hold the codec to.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"semstm/stm"
)

// WireOp is one operation on the wire.
type WireOp struct {
	Op  string `json:"op"`
	Ks  string `json:"ks,omitempty"`
	Key uint64 `json:"key"`
	Val int64  `json:"val,omitempty"`
	Cmp string `json:"cmp,omitempty"`
}

// WireRequest is one request line.
type WireRequest struct {
	ID  uint64   `json:"id"`
	Ops []WireOp `json:"ops"`
}

// WireResponse is one response line.
type WireResponse struct {
	ID    uint64  `json:"id"`
	OK    bool    `json:"ok"`
	Guard bool    `json:"guard"`
	Reads []int64 `json:"reads,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// cmpName spells a semantic operator as the wire protocol does.
func cmpName(op stm.Op) string {
	switch op {
	case stm.OpEQ:
		return "eq"
	case stm.OpNEQ:
		return "neq"
	case stm.OpGT:
		return "gt"
	case stm.OpGTE:
		return "gte"
	case stm.OpLT:
		return "lt"
	case stm.OpLTE:
		return "lte"
	default:
		return fmt.Sprintf("op%d", uint8(op))
	}
}

// Server owns the TCP listener and the metrics HTTP listener of one store.
type Server struct {
	store *Store
	ln    net.Listener
	mln   net.Listener
	hs    *http.Server
	wg    sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts the wire protocol on addr and, when metricsAddr is non-empty,
// the /metrics endpoint there. Pass ":0" to bind an ephemeral port; Addr and
// MetricsAddr report the bound addresses.
func Serve(store *Store, addr, metricsAddr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			store.WriteMetrics(w)
		})
		srv.mln = mln
		srv.hs = &http.Server{Handler: mux}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.hs.Serve(mln)
		}()
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// Addr reports the wire listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr reports the metrics listener's address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.mln == nil {
		return ""
	}
	return s.mln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// maxLine bounds one request line (1 MiB — thousands of ops).
const maxLine = 1 << 20

// keepLine is the longest line whose decoding buffers a connection keeps
// for the next one; a longer line's are dropped, so that one huge request
// does not pin its memory for the connection's lifetime.
const keepLine = 4 << 10

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 4096), maxLine)
	var (
		dec requestDecoder
		req Request // reused: Submit returns only once the request is done
		out []byte
	)
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		id, err := dec.decode(line, &req)
		resp := WireResponse{ID: id}
		if err != nil {
			resp.Err = err.Error()
		} else {
			res := s.store.Submit(&req)
			resp.OK, resp.Guard, resp.Reads = res.Committed, res.GuardOK, res.Reads
			if res.Err != nil {
				resp.Err = res.Err.Error()
			}
		}
		out = appendResponse(out[:0], &resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
		if len(line) > keepLine {
			dec, req, out = requestDecoder{}, Request{}, nil
		}
	}
	if errors.Is(in.Err(), bufio.ErrTooLong) {
		refuseLongLine(conn)
	}
}

// refuseLongLine answers a line that overflowed maxLine, after which the
// stream has lost its framing, and winds the connection down: a half-close
// puts the end of the stream right after the reply, and the input still
// arriving is drained for up to a second, because closing a socket with
// unread input resets the connection and can discard the reply.
func refuseLongLine(conn net.Conn) {
	reply := appendResponse(nil, &WireResponse{Err: "bad request: line exceeds 1 MiB"})
	if _, err := conn.Write(reply); err != nil {
		return
	}
	// Failures below only cut the wind-down short; the caller closes anyway.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.Copy(io.Discard, conn)
}

// Close stops both listeners, closes every live connection, and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if s.hs != nil {
		s.hs.Close()
	}
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Client is a minimal wire-protocol client (loadgen's TCP mode, tests).
type Client struct {
	conn net.Conn
	in   *bufio.Scanner
	out  []byte
	dec  responseDecoder
	next uint64
}

// Dial connects to a server's wire address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 4096), maxLine)
	return &Client{conn: conn, in: in}, nil
}

// Do executes one request and returns its response, whose Reads the caller
// may keep.
func (c *Client) Do(ops []WireOp) (WireResponse, error) {
	c.next++
	c.out = appendRequest(c.out[:0], c.next, ops)
	if _, err := c.conn.Write(c.out); err != nil {
		return WireResponse{}, err
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return WireResponse{}, err
		}
		return WireResponse{}, fmt.Errorf("server: connection closed")
	}
	var resp WireResponse
	if err := c.dec.decode(c.in.Bytes(), &resp); err != nil {
		return WireResponse{}, err
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
