package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// A client that never finishes its request headers is disconnected, not
// left holding a goroutine and a file descriptor. The server is the
// daemon's, with its header timeout scaled down to test speed.
func TestHTTPServerClosesPartialHeaders(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts header=%s idle=%s write=%s, want %s, %s and none (streams are long-lived)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /v1/stats HTTP/1.1\r\nHost: maritimed\r\n"); err != nil { // no blank line
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(c)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with unfinished headers still open after %s", time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("server closed the connection after %s", time.Since(start).Round(time.Millisecond))
}
