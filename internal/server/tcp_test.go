package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"semstm/stm"
)

// TestWireRoundTrip drives the full network stack: server on ephemeral
// ports, concurrent clients over real TCP, and a /metrics scrape.
func TestWireRoundTrip(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	resp, err := c.Do([]WireOp{{Op: "write", Ks: "acct", Key: 1, Val: 100}})
	if err != nil || !resp.OK || !resp.Guard {
		t.Fatalf("write: %+v err=%v", resp, err)
	}
	resp, err = c.Do([]WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 50},
		{Op: "inc", Ks: "acct", Key: 1, Val: -50},
		{Op: "read", Ks: "acct", Key: 1},
	})
	if err != nil || !resp.OK || !resp.Guard {
		t.Fatalf("guarded dec: %+v err=%v", resp, err)
	}
	// The read ran before commit applied the deferred inc's merge? No — the
	// read is in the same transaction and promotes the inc: 100-50.
	if len(resp.Reads) != 1 || resp.Reads[0] != 50 {
		t.Fatalf("reads = %v, want [50]", resp.Reads)
	}
	// Failed guard commits empty.
	resp, err = c.Do([]WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 1000},
		{Op: "write", Ks: "acct", Key: 1, Val: 0},
	})
	if err != nil || !resp.OK || resp.Guard {
		t.Fatalf("failed guard: %+v err=%v", resp, err)
	}
	// Malformed op reports per-request, connection stays usable.
	resp, err = c.Do([]WireOp{{Op: "nope", Key: 1}})
	if err != nil || resp.Err == "" {
		t.Fatalf("bad op: %+v err=%v", resp, err)
	}
	resp, err = c.Do([]WireOp{{Op: "read", Ks: "acct", Key: 1}})
	if err != nil || !resp.OK || resp.Reads[0] != 50 {
		t.Fatalf("read after error: %+v err=%v", resp, err)
	}

	// Concurrent connections hammering one hot counter.
	const conns, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cc.Close()
			for j := 0; j < per; j++ {
				if r, err := cc.Do([]WireOp{{Op: "inc", Ks: "hot", Key: 0, Val: 1}}); err != nil || !r.OK {
					t.Errorf("inc: %+v err=%v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	resp, err = c.Do([]WireOp{{Op: "read", Ks: "hot", Key: 0}})
	if err != nil || resp.Reads[0] != conns*per {
		t.Fatalf("hot counter = %v (err=%v), want %d", resp.Reads, err, conns*per)
	}

	// Metrics endpoint serves the Prometheus families.
	hr, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.MetricsAddr()))
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(body), "semstm_requests_total") ||
		!strings.Contains(string(body), "semstm_batch_size_bucket") {
		t.Fatalf("metrics body missing families:\n%s", body)
	}
}

// TestOversizedLine sends a line one byte longer than maxLine: the server
// cannot frame the stream past it, so it must answer with one bad-request
// line and then close the connection, rather than close it silently.
func TestOversizedLine(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(append(bytes.Repeat([]byte{'x'}, maxLine+1), '\n'))
		wrote <- err
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(conn)
	line, err := in.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply before the connection ended: %v", err)
	}
	if want := `{"id":0,"ok":false,"guard":false,"err":"bad request: line exceeds 1 MiB"}` + "\n"; line != want {
		t.Fatalf("reply = %q, want %q", line, want)
	}
	if _, err := in.ReadByte(); err != io.EOF {
		t.Fatalf("after the reply: %v, want EOF", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestRunLoadInProcess smoke-tests the in-process load generator.
func TestRunLoadInProcess(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	res := RunLoad(s, LoadConfig{Connections: 8, Duration: 80 * 1e6, Seed: 11})
	if res.Requests == 0 || res.Committed == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.RequestsPerSec <= 0 {
		t.Fatalf("rate = %v", res.RequestsPerSec)
	}
}
