package serve

// Pin tests for the HTTP server hardening knobs: ReadHeaderTimeout must
// drop a slow-loris client that dribbles its headers, while the deliberate
// absence of a WriteTimeout (plus IdleTimeout applying only between
// requests) must leave a long-lived SSE watch stream intact even when it
// outlives every configured timeout. These exist so a future "tidy-up" that
// adds WriteTimeout or drops ReadHeaderTimeout fails loudly.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startHardenedServer boots a real listener (httptest.Server manages its
// own http.Server, which would bypass the daemon's timeout wiring).
func startHardenedServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, addr
}

// TestSlowHeaderClientDropped: a connection that sends half a request line
// and stalls is cut off once ReadHeaderTimeout elapses, instead of pinning
// a connection goroutine forever.
func TestSlowHeaderClientDropped(t *testing.T) {
	_, addr := startHardenedServer(t, Config{
		Workers: 1, QueueCap: 2,
		ReadHeaderTimeout: 200 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTT"); err != nil {
		t.Fatal(err)
	}
	// Never finish the request line. Once ReadHeaderTimeout elapses the
	// server terminates the connection (net/http may write a 400 on its way
	// out); without the timeout it would hold the connection open
	// indefinitely and this read would hit its own deadline instead.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server never closed the slow-header connection (waited %v)", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow-header connection lingered %v; want closure shortly after the 200ms ReadHeaderTimeout", elapsed)
	}
}

// TestSSEWatchSurvivesIdleTimeout: an SSE stream that stays silent longer
// than IdleTimeout (and longer than ReadHeaderTimeout) still delivers the
// terminal event. IdleTimeout only reaps keep-alive connections between
// requests, and no WriteTimeout is configured — this test pins both.
func TestSSEWatchSurvivesIdleTimeout(t *testing.T) {
	_, addr := startHardenedServer(t, Config{
		Workers: 1, QueueCap: 4,
		ReadHeaderTimeout: 150 * time.Millisecond,
		IdleTimeout:       150 * time.Millisecond,
	})
	c := NewClient("http://" + addr)
	ctx := context.Background()

	// A job long enough that the watch stream is open well past IdleTimeout:
	// three times mediumSpec's measurement window, since mediumSpec alone
	// now finishes in about 250ms on one worker.
	st, err := c.SubmitJSON(ctx, []byte(`{
		"id": "t-idle", "dims": [8, 8], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 60000, "drain": 100,
		"reps": 4, "seed": 41
	}`))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s/events", addr, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events endpoint answered %d", stream.StatusCode)
	}
	start := time.Now()
	sawTerminal := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"state": "done"`) || strings.Contains(line, `"state":"done"`) {
			sawTerminal = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream was severed: %v (after %v)", err, time.Since(start))
	}
	if !sawTerminal {
		t.Fatal("SSE stream ended without delivering the terminal event")
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		// The stream must actually have outlived the timeouts for the pin
		// to mean anything; the job above takes well over 300ms on one worker.
		t.Fatalf("stream only lived %v — too short to exercise IdleTimeout", elapsed)
	}
}
