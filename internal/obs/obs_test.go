package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("queue_depth", "queue depth")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("same name did not return the same counter")
	}
	v1 := r.CounterVec("y_total", "y", "state")
	v2 := r.CounterVec("y_total", "y", "state")
	if v1.With("on") != v2.With("on") {
		t.Error("same name+labels did not return the same child")
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "m")
}

func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("m_total", "m", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("With with wrong label count did not panic")
		}
	}()
	v.With("only-one")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+2; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	// le semantics: 0.01 lands in the 0.01 bucket; buckets are
	// cumulative.
	for _, tc := range []struct {
		le   string
		want float64
	}{
		{"0.01", 2}, {"0.1", 3}, {"1", 4}, {"+Inf", 5},
	} {
		if got := snap.Value("lat_seconds_bucket", "le", tc.le); got != tc.want {
			t.Errorf("bucket le=%s = %v, want %v", tc.le, got, tc.want)
		}
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "d", []float64{0.5, 2})
	h.ObserveDuration(1500 * time.Millisecond)
	snap := r.Snapshot()
	if got := snap.Value("d_seconds_bucket", "le", "2"); got != 1 {
		t.Errorf("1.5s not in le=2 bucket: %v", got)
	}
	if got := snap.Value("d_seconds_sum"); got != 1.5 {
		t.Errorf("sum = %v, want 1.5", got)
	}
}

func TestSnapshotLabelsOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "ops", "kind", "result")
	v.With("read", "ok").Add(3)
	snap := r.Snapshot()
	if got := snap.Value("ops_total", "kind", "read", "result", "ok"); got != 3 {
		t.Errorf("forward order = %v, want 3", got)
	}
	if got := snap.Value("ops_total", "result", "ok", "kind", "read"); got != 3 {
		t.Errorf("reversed order = %v, want 3", got)
	}
	if snap.Has("ops_total", "kind", "write", "result", "ok") {
		t.Error("unobserved series reported present")
	}
	if got := snap.Value("ops_total", "kind", "write", "result", "ok"); got != 0 {
		t.Errorf("missing series = %v, want 0", got)
	}
}

func TestTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a help").Add(2)
	r.GaugeVec("b", "b help", "state").With(`quo"te`).Set(-1)
	h := r.Histogram("c_seconds", "c help", []float64{0.1})
	h.Observe(0.05)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total a help\n# TYPE a_total counter\na_total 2\n",
		"# TYPE b gauge\nb{state=\"quo\\\"te\"} -1\n",
		"c_seconds_bucket{le=\"0.1\"} 1\n",
		"c_seconds_bucket{le=\"+Inf\"} 2\n",
		"c_seconds_sum 3.05\n",
		"c_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q in:\n%s", want, out)
		}
	}
}

// TestCounterFunc: a function-backed counter, labeled or not, reads its
// function each time the registry is written or snapshotted; registering
// it again takes the new function; and it is a counter kind of its own.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var hits, fwd, drop uint64 = 3, 7, 1
	r.CounterFunc("hits_total", "hits help", func() uint64 { return hits })
	v := r.CounterFuncVec("pkts_total", "pkts help", "action")
	v.Func(func() uint64 { return fwd }, "forward")
	v.Func(func() uint64 { return drop }, "drop")

	text := func() string {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	check := func(h, f, d uint64) {
		t.Helper()
		out := text()
		for _, want := range []string{
			fmt.Sprintf("# HELP hits_total hits help\n# TYPE hits_total counter\nhits_total %d\n", h),
			fmt.Sprintf("# TYPE pkts_total counter\npkts_total{action=\"forward\"} %d\npkts_total{action=\"drop\"} %d\n", f, d),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("text output missing %q in:\n%s", want, out)
			}
		}
		s := r.Snapshot()
		if got := s.Value("hits_total"); got != float64(h) {
			t.Errorf("snapshot hits_total = %v, want %d", got, h)
		}
		if got := s.Value("pkts_total", "action", "forward"); got != float64(f) {
			t.Errorf("snapshot forward = %v, want %d", got, f)
		}
		if got := s.Value("pkts_total", "action", "drop"); got != float64(d) {
			t.Errorf("snapshot drop = %v, want %d", got, d)
		}
	}
	check(3, 7, 1)
	hits, fwd = 4, 9 // read at the next write, not at registration
	check(4, 9, 1)

	// Registering again replaces the function and keeps the family.
	r.CounterFunc("hits_total", "hits help", func() uint64 { return 40 })
	r.CounterFuncVec("pkts_total", "pkts help", "action").Func(func() uint64 { return 90 }, "forward")
	check(40, 90, 1)
	if n := strings.Count(text(), "# TYPE hits_total"); n != 1 {
		t.Errorf("hits_total exported %d times", n)
	}

	r.Counter("plain_total", "")
	for name, register := range map[string]func(){
		"a function as a Counter":    func() { r.Counter("hits_total", "") },
		"a function as a CounterVec": func() { r.CounterVec("pkts_total", "", "action") },
		"a function as a Gauge":      func() { r.Gauge("hits_total", "") },
		"a Counter as a function":    func() { r.CounterFunc("plain_total", "", func() uint64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registering %s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Errorf("scrape missing counter: %s", buf[:n])
	}
}

// TestConcurrentHammer drives every metric kind from many goroutines
// while scrapes and snapshots run concurrently; run under -race this
// is the data-race gate for the lock-free paths, and the final totals
// prove no update was lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "hammer")
	cv := r.CounterVec("hammer_labeled_total", "hammer", "worker")
	g := r.Gauge("hammer_gauge", "hammer")
	h := r.Histogram("hammer_seconds", "hammer", []float64{0.25, 0.5, 0.75})

	const (
		workers = 16
		iters   = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: snapshots and text scrapes must not race
	// with writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				_ = snap.Value("hammer_total")
				var sb strings.Builder
				_ = r.WriteText(&sb)
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			lc := cv.With("w") // shared child: contention on one atomic
			for i := 0; i < iters; i++ {
				c.Inc()
				lc.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i%4) / 4.0)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Value("hammer_total"); got != workers*iters {
		t.Errorf("counter lost updates: %v, want %d", got, workers*iters)
	}
	if got := snap.Value("hammer_labeled_total", "worker", "w"); got != workers*iters {
		t.Errorf("labeled counter lost updates: %v, want %d", got, workers*iters)
	}
	if got := snap.Value("hammer_gauge"); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := snap.Value("hammer_seconds_count"); got != workers*iters {
		t.Errorf("histogram lost observations: %v, want %d", got, workers*iters)
	}
	// Each worker observes 0, .25, .5, .75 round-robin: sum is exact
	// in binary floating point, so the CAS loop must account for every
	// sample.
	want := float64(workers) * float64(iters) / 4 * (0 + 0.25 + 0.5 + 0.75)
	if got := snap.Value("hammer_seconds_sum"); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "h", []float64{1, 2, 4, 8})
	// An empty histogram has no quantiles: NaN, not a fake perfect 0.
	if got := h.Quantile(0.99); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN quantile = %v, want NaN", got)
	}
	// 100 samples uniform in (0,1]: every one lands in the le=1 bucket,
	// so any quantile interpolates inside [0,1].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Quantile(0.5); got != 0.5 {
		t.Errorf("median = %v, want 0.5 (interpolated half of first bucket)", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Errorf("p100 = %v, want 1", got)
	}
	// Push 100 more into (1,2]: p99 of the combined 200 sits in the
	// second bucket: rank 198 of 200, 98 into the 100-sample bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(1 + float64(i)/100)
	}
	if got := h.Quantile(0.99); got != 1.98 {
		t.Errorf("p99 = %v, want 1.98", got)
	}
	// A sample beyond the last bound saturates at that bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p100 with +Inf sample = %v, want 8 (saturated)", got)
	}
}
