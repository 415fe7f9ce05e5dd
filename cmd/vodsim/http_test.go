package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startHTTP serves srv on a loopback port and returns its address; the
// server is closed when the test ends.
func startHTTP(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
}

func TestHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer(okHandler())
	if srv.ReadHeaderTimeout != httpReadHeaderTimeout || srv.IdleTimeout != httpIdleTimeout ||
		srv.MaxHeaderBytes != httpMaxHeaderBytes {
		t.Fatalf("limits not set: %+v", srv)
	}
	if httpReadHeaderTimeout <= 0 || httpIdleTimeout <= 0 || httpMaxHeaderBytes <= 0 {
		t.Fatal("every limit must be positive to take effect")
	}
}

// A client that sends part of its request header and then stalls is
// disconnected once the header timeout passes. The timeout is shortened
// here only so the test runs quickly.
func TestHTTPServerDropsStalledHeader(t *testing.T) {
	srv := newHTTPServer(okHandler())
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	addr := startHTTP(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /status HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("disconnected only after %v", waited)
	}
}

// A request whose headers exceed the limit is refused; a normal request
// on the same server is answered.
func TestHTTPServerRejectsOversizedHeader(t *testing.T) {
	addr := startHTTP(t, newHTTPServer(okHandler()))

	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Big", strings.Repeat("a", 2*httpMaxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("oversized header: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}

	resp, err = http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal request: status %d", resp.StatusCode)
	}
}
