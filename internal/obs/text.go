package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) plus the snapshot
// API tests assert against. Both walk the same family/child structure;
// neither blocks writers — values are read with the same atomics the
// hot path updates, and a function-backed counter's function is called
// with no registry lock held.

// WriteText writes every registered metric in the Prometheus text
// format, families in registration order, children in creation order.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		kids := make([]*child, len(keys))
		for i, k := range keys {
			kids[i] = f.children[k]
		}
		f.mu.RUnlock()
		for _, c := range kids {
			writeChild(bw, f, c)
		}
	}
	return bw.Flush()
}

func writeChild(w io.Writer, f *family, c *child) {
	base := labelString(f.labels, c.labelValues, "", "")
	switch f.kind {
	case KindCounter, kindCounterFunc:
		fmt.Fprintf(w, "%s%s %d\n", f.name, base, c.count())
	case KindGauge:
		fmt.Fprintf(w, "%s%s %d\n", f.name, base, c.gauge.Value())
	case KindHistogram:
		h := c.histogram
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			le := labelString(f.labels, c.labelValues, "le", formatFloat(bound))
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		le := labelString(f.labels, c.labelValues, "le", "+Inf")
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, h.Count())
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" label); it returns "" when there are no pairs.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at any path in the Prometheus text
// format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Snapshot is a point-in-time copy of every metric value, keyed by
// name plus sorted label pairs. Histograms contribute three synthetic
// series: <name>_count, <name>_sum and <name>_bucket with an "le"
// label per bound ("+Inf" included), mirroring the text exposition.
type Snapshot struct {
	values map[string]float64
}

func snapKey(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{values: make(map[string]float64)}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		kids := make([]*child, 0, len(f.order))
		for _, k := range f.order {
			kids = append(kids, f.children[k])
		}
		f.mu.RUnlock()
		for _, c := range kids {
			kv := make([]string, 0, 2*len(f.labels))
			for i, n := range f.labels {
				kv = append(kv, n, c.labelValues[i])
			}
			switch f.kind {
			case KindCounter, kindCounterFunc:
				snap.values[snapKey(f.name, kv)] = float64(c.count())
			case KindGauge:
				snap.values[snapKey(f.name, kv)] = float64(c.gauge.Value())
			case KindHistogram:
				h := c.histogram
				snap.values[snapKey(f.name+"_count", kv)] = float64(h.Count())
				snap.values[snapKey(f.name+"_sum", kv)] = h.Sum()
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					bkv := append(append([]string(nil), kv...), "le", formatFloat(bound))
					snap.values[snapKey(f.name+"_bucket", bkv)] = float64(cum)
				}
				cum += h.buckets[len(h.bounds)].Load()
				bkv := append(append([]string(nil), kv...), "le", "+Inf")
				snap.values[snapKey(f.name+"_bucket", bkv)] = float64(cum)
			}
		}
	}
	return snap
}

// Value returns the snapshotted value for a metric, addressed by name
// and alternating label key/value pairs (order-insensitive); missing
// series read as 0.
func (s Snapshot) Value(name string, kv ...string) float64 {
	return s.values[snapKey(name, kv)]
}

// Has reports whether the series exists in the snapshot.
func (s Snapshot) Has(name string, kv ...string) bool {
	_, ok := s.values[snapKey(name, kv)]
	return ok
}
