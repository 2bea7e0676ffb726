package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheus pins the exposition format: sorted families, the
// cfd_ namespace with sanitized names, a gauge type annotation per
// family, and promValue's integral and fractional forms.
func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, map[string]float64{
		"zeta.count":  3,
		"alpha.gauge": 1.5,
		"mid.probe":   7,
	}); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := strings.Join([]string{
		"# TYPE cfd_alpha_gauge gauge",
		"cfd_alpha_gauge 1.5",
		"# TYPE cfd_mid_probe gauge",
		"cfd_mid_probe 7",
		"# TYPE cfd_zeta_count gauge",
		"cfd_zeta_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusDeterministic pins scrape-to-scrape byte identity.
func TestWritePrometheusDeterministic(t *testing.T) {
	g := map[string]float64{}
	for _, n := range []string{"c.b", "a.z", "m.q", "z.a", "b.b"} {
		g[n] = 1
	}
	var a, b strings.Builder
	WritePrometheus(&a, g)
	WritePrometheus(&b, g)
	if a.String() != b.String() {
		t.Fatal("two scrapes of identical state differ")
	}
}

// TestWritePrometheusNil pins that no gauges serve an empty body.
func TestWritePrometheusNil(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("no gauges wrote %q", b.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"harness.cache_hits": "cfd_harness_cache_hits",
		"host.rss_bytes":     "cfd_host_rss_bytes",
		"weird name-1":       "cfd_weird_name_1",
		"ns:sub":             "cfd_ns:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryEachSorted pins deterministic iteration: the exposition
// lists its families in sorted order of their Prometheus names, whatever
// the map order, and sorts after sanitizing ("a.b" serves as "cfd_a_b",
// which sorts after "cfd_a_a" and before "cfd_a_c").
func TestRegistryEachSorted(t *testing.T) {
	g := map[string]float64{"b": 2, "a": 1, "a_c": 4, "a.b": 3, "a_a": 5}
	for i := 0; i < 10; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, g); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			if !strings.HasPrefix(line, "# TYPE ") {
				names = append(names, strings.Fields(line)[0])
			}
		}
		want := []string{"cfd_a", "cfd_a_a", "cfd_a_b", "cfd_a_c", "cfd_b"}
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Fatalf("exposition lists %v, want %v", names, want)
		}
	}
}
