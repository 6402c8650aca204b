package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func newProxy(t *testing.T) *Proxy {
	t.Helper()
	inner := http.NewServeMux()
	inner.HandleFunc("/v1/compare", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "0123456789") // 10 bytes: truncation is observable
	})
	inner.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	px, err := New(inner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	return px
}

func get(t *testing.T, url string) (int, string, error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

func TestProxyHealthyPassThrough(t *testing.T) {
	px := newProxy(t)
	status, body, err := get(t, px.URL()+"/v1/compare")
	if err != nil || status != 200 || body != "0123456789" {
		t.Fatalf("healthy pass-through: %d %q %v", status, body, err)
	}
}

// Hang parks every request (probes included) until the mode changes.
func TestProxyHangRespectsContext(t *testing.T) {
	px := newProxy(t)
	px.Set(Hang)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, px.URL()+"/v1/readyz", nil)
	start := time.Now()
	_, err := http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("hung proxy answered")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("request failed after %v — it did not actually hang", elapsed)
	}
}

// Flipping out of Hang unparks waiters (they answer 503, not a stall).
func TestProxyHangRelease(t *testing.T) {
	px := newProxy(t)
	px.Set(Hang)
	done := make(chan int, 1)
	go func() {
		status, _, _ := get(t, px.URL()+"/v1/compare")
		done <- status
	}()
	time.Sleep(50 * time.Millisecond)
	px.Set(Healthy)
	select {
	case status := <-done:
		if status != http.StatusServiceUnavailable {
			t.Fatalf("released waiter got %d, want 503", status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still parked after the mode changed")
	}
}

// Slow delays /compare but leaves probes honest.
func TestProxySlowSparesProbes(t *testing.T) {
	px := newProxy(t)
	px.SetSlow(300 * time.Millisecond)

	start := time.Now()
	resp, err := http.Get(px.URL() + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("probe took %v under Slow — probes must not be delayed", elapsed)
	}

	start = time.Now()
	status, body, err := get(t, px.URL()+"/v1/compare")
	if err != nil || status != 200 || body != "0123456789" {
		t.Fatalf("slow compare: %d %q %v", status, body, err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("compare took %v under Slow(300ms) — delay not applied", elapsed)
	}
}

// Corrupt declares the full Content-Length but truncates the body, so a
// client that reads to completion sees an unexpected EOF.
func TestProxyCorruptTruncates(t *testing.T) {
	px := newProxy(t)
	px.Set(Corrupt)
	resp, err := http.Post(px.URL()+"/v1/compare", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != 10 {
		t.Fatalf("corrupt response declares length %d, want the honest 10", resp.ContentLength)
	}
	_, err = io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("reading a corrupt response succeeded — truncation is not observable")
	}
}

func TestProxyRejectIs429(t *testing.T) {
	px := newProxy(t)
	px.Set(Reject)
	resp, err := http.Post(px.URL()+"/v1/compare", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("reject mode: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Probes still pass: rejection models saturation, not death.
	resp, err = http.Get(px.URL() + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("probe under Reject: %d, want 200", resp.StatusCode)
	}
}

// Kill drops the listener (connection refused); Restart resurrects it on
// the same address so registry URLs stay valid.
func TestProxyKillRestart(t *testing.T) {
	px := newProxy(t)
	addr := px.Addr()
	px.Kill()
	if _, _, err := get(t, px.URL()+"/v1/compare"); err == nil {
		t.Fatal("killed proxy still answers")
	}
	if err := px.Restart(); err != nil {
		t.Fatal(err)
	}
	if px.Addr() != addr {
		t.Fatalf("restart moved the proxy: %s -> %s", addr, px.Addr())
	}
	status, body, err := get(t, px.URL()+"/v1/compare")
	if err != nil || status != 200 || body != "0123456789" {
		t.Fatalf("restarted proxy: %d %q %v", status, body, err)
	}
}
