package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recorder collects duration samples from several goroutines. Samples
// are kept exactly (no buckets): a bucketed percentile reads the same on
// every run, which hides what the benchmark exists to show.
type recorder struct {
	mu sync.Mutex
	v  []int64
}

func newRecorder(capacity int) *recorder { return &recorder{v: make([]int64, 0, capacity)} }

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.v = append(r.v, int64(d))
	r.mu.Unlock()
}

// take returns the samples sorted and empties the recorder, keeping its
// buffer for the next phase.
func (r *recorder) take() []int64 {
	r.mu.Lock()
	out := sorted(r.v)
	r.v = r.v[:0]
	r.mu.Unlock()
	return out
}

func sorted(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile reads the q-quantile of sorted samples with linear
// interpolation between ranks; 0 for no samples.
func quantile(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(v []float64) float64 { return quantileF(v, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance check of the benchmark uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// us and ms convert nanosecond quantities for reporting.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTimes reads the process's cumulative user and system CPU time and
// its peak resident set.
func cpuTimes() (user, sys time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime), tv(ru.Stime), int64(ru.Maxrss)
}

// procStat reads from /proc/stat the processor time the hypervisor took
// from the guest (steal) and the time the guest's processors were not
// idle (steal included), summed over processors.
func procStat() (steal, busy time.Duration) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	jiffies := func(i int) time.Duration {
		j, _ := strconv.ParseInt(f[i], 10, 64)
		return time.Duration(j) * 10 * time.Millisecond
	}
	// user nice system idle iowait irq softirq steal
	steal = jiffies(8)
	busy = jiffies(1) + jiffies(2) + jiffies(3) + jiffies(6) + jiffies(7) + steal
	return steal, busy
}
