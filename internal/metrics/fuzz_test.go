package metrics

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseText throws arbitrary bytes at ParseText, the parser
// cmd/tlrload trusts with scraped /metrics bodies.  Two properties must
// hold on every input: ParseText never panics, and a registry whose
// label values and sample values are taken from the input parses back
// from its own exposition to exactly the samples it holds.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("tlr_jobs_total", "Jobs accepted.").Add(3)
	r.GaugeVec("tlr_label_gauge", "Escaped labels.", "x", "y").With("va\"l\n", `w,2\`).Set(-1.5)
	h := r.HistogramVec("tlr_job_seconds", "Job latency.", []float64{0.1, 1}, "kind")
	h.With("study").Observe(0.5)
	h.With("rtm").Observe(math.Inf(1))
	var dump bytes.Buffer
	if err := r.WritePrometheus(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	f.Add([]byte(`a{b="unterminated} 1`))
	f.Add([]byte("a{b=\"\\\"} 1\n"))
	f.Add([]byte("a{=\"v\"} 1\nb NaN\nc -Inf\n"))
	f.Add([]byte("9bad 1\nname\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ParseText(bytes.NewReader(data)) // any error is fine; a panic is not
		if len(data) > 16<<10 {
			// Quoting can quadruple a label value; stay well inside
			// the parser's 1 MiB line limit.
			data = data[:16<<10]
		}
		roundTrip(t, data)
	})
}

// roundTrip builds a registry from data — its lines as counter labels,
// the whole input as a gauge label, its first eight bytes as the gauge
// and histogram value — and checks that ParseText reads the registry's
// exposition back to exactly the samples it was given.
func roundTrip(t *testing.T, data []byte) {
	v := float64(len(data))
	if len(data) >= 8 {
		v = math.Float64frombits(binary.LittleEndian.Uint64(data))
	}
	lines := strings.SplitN(string(data), "\n", 4)

	r := NewRegistry()
	want := map[string]float64{}
	add := func(name string, val float64, labels ...string) {
		s := Sample{Name: name, Labels: map[string]string{}}
		for i := 0; i+1 < len(labels); i += 2 {
			s.Labels[labels[i]] = labels[i+1]
		}
		want[sampleKey(s)] += val
	}
	cv := r.CounterVec("fuzz_lines_total", "Input lines.", "line")
	for i, l := range lines {
		cv.With(l).Add(uint64(i + 1))
		add("fuzz_lines_total", float64(i+1), "line", l)
	}
	n := strconv.Itoa(len(data))
	r.GaugeVec("fuzz_value", "Input value.", "input", "n").With(string(data), n).Set(v)
	add("fuzz_value", v, "input", string(data), "n", n)
	r.HistogramVec("fuzz_seconds", "Input latency.", []float64{1}, "kind").With(lines[0]).Observe(v)
	le1 := 1.0
	if v > 1 {
		le1 = 0
	}
	add("fuzz_seconds_bucket", le1, "kind", lines[0], "le", "1")
	add("fuzz_seconds_bucket", 1, "kind", lines[0], "le", "+Inf")
	add("fuzz_seconds_sum", 0+v, "kind", lines[0])
	add("fuzz_seconds_count", 1, "kind", lines[0])

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseText of a registry dump: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, s := range samples {
		k := sampleKey(s)
		if _, dup := got[k]; dup {
			t.Fatalf("sample %s parsed twice\n%s", k, buf.String())
		}
		got[k] = s.Value
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, registry holds %d\n%s", len(got), len(want), buf.String())
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("sample %s missing\n%s", k, buf.String())
		}
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("sample %s = %v, want %v", k, g, w)
		}
	}
}

// sampleKey renders a sample's name and labels, sorted by key, as one
// comparable string.
func sampleKey(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%q", k, s.Labels[k])
	}
	return b.String()
}
