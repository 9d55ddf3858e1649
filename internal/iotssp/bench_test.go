package iotssp

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"iotsentinel/internal/core"
)

// requestBytes counts the body bytes of the requests it passes on.
type requestBytes struct {
	inner http.RoundTripper
	n     int64
}

func (c *requestBytes) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n += r.ContentLength
	return c.inner.RoundTrip(r)
}

// BenchmarkRemoteAssess is one gateway's Assess call across loopback:
// Client → net/http → the handler stack iotsspd serves (TimeoutHandler
// around Handler) → Service.Assess answered from a warm identification
// cache → the verdict back. One caller, one keep-alive connection; what
// it times is the exchange, not the classification. A loopback round
// trip swings with the host, so the archive carries it ungated.
func BenchmarkRemoteAssess(b *testing.B) {
	svc, _ := testService(b)
	if err := svc.Identifier().ApplyRuntime(0, core.DefaultCacheSize); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(http.TimeoutHandler(Handler(svc), 30*time.Second, "assessment timed out"))
	defer srv.Close()
	counted := &requestBytes{inner: srv.Client().Transport}
	client := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: counted}}
	fp := probeFor(b, "EdnetCam", 104)
	if _, err := client.Assess(fp); err != nil { // dials, and fills the cache
		b.Fatal(err)
	}
	counted.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Assess(fp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(counted.n)/float64(b.N), "reqB/op")
}
