package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName maps an instrument name to a legal Prometheus metric name:
// the "cfd_" namespace prefix, with every character outside
// [a-zA-Z0-9_:] replaced by '_' (so "harness.cache_hits" serves as
// "cfd_harness_cache_hits").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("cfd_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue formats a sample value the way Prometheus expects ('g'
// shortest-form floats; integral values render without an exponent).
func promValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders gauges, keyed by instrument name, in the
// Prometheus text exposition format (version 0.0.4): one gauge family per
// name, emitted in sorted order, so two scrapes of identical state are
// byte-identical.
func WritePrometheus(w io.Writer, gauges map[string]float64) error {
	names := make([]string, 0, len(gauges))
	values := make(map[string]float64, len(gauges))
	for name, v := range gauges {
		p := promName(name)
		names = append(names, p)
		values[p] = v
	}
	sort.Strings(names)
	for _, p := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", p, p, promValue(values[p])); err != nil {
			return err
		}
	}
	return nil
}
