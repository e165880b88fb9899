package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts holds the daemon's server to its connection
// timeouts: a slow header or an idle keep-alive connection is cut, and
// nothing cuts a request whose headers have arrived.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NewServeMux())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout is %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout is %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v and WriteTimeout %v would cut a long /step or /checkpoint", srv.ReadTimeout, srv.WriteTimeout)
	}
}
