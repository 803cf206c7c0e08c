package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	ukc "repro"
	"repro/serve"
)

// TestPromWriteGolden pins the exposition byte-for-byte on a fixed sample
// set: family grouping, TYPE inference (counter/_total, histogram from
// _bucket/_sum/_count, gauge otherwise), sorted deterministic ordering and
// label escaping.
func TestPromWriteGolden(t *testing.T) {
	pc := newPromCollector()
	add := pc.add("euclidean")
	add("ukc_serve_requests_total", map[string]string{"shard": "0", "outcome": "completed"}, 12)
	add("ukc_serve_requests_total", map[string]string{"shard": "0", "outcome": "failed"}, 1)
	add("ukc_serve_queue_depth", map[string]string{"shard": "0"}, 3)
	add("ukc_serve_latency_seconds", map[string]string{"shard": "0", "stage": "exec", "quantile": "0.99"}, 0.25)
	add("ukc_serve_instance_cache_build_seconds_bucket", map[string]string{"shard": "0", "instance": `we"ird\name`, "le": "0.005"}, 2)
	add("ukc_serve_instance_cache_build_seconds_bucket", map[string]string{"shard": "0", "instance": `we"ird\name`, "le": "+Inf"}, 3)
	add("ukc_serve_instance_cache_build_seconds_sum", map[string]string{"shard": "0", "instance": `we"ird\name`}, 0.0075)
	add("ukc_serve_instance_cache_build_seconds_count", map[string]string{"shard": "0", "instance": `we"ird\name`}, 3)

	var b strings.Builder
	if err := pc.write(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE ukc_serve_instance_cache_build_seconds histogram
ukc_serve_instance_cache_build_seconds_bucket{instance="we\"ird\\name",kind="euclidean",le="+Inf",shard="0"} 3
ukc_serve_instance_cache_build_seconds_bucket{instance="we\"ird\\name",kind="euclidean",le="0.005",shard="0"} 2
ukc_serve_instance_cache_build_seconds_count{instance="we\"ird\\name",kind="euclidean",shard="0"} 3
ukc_serve_instance_cache_build_seconds_sum{instance="we\"ird\\name",kind="euclidean",shard="0"} 0.0075
# TYPE ukc_serve_latency_seconds gauge
ukc_serve_latency_seconds{kind="euclidean",quantile="0.99",shard="0",stage="exec"} 0.25
# TYPE ukc_serve_queue_depth gauge
ukc_serve_queue_depth{kind="euclidean",shard="0"} 3
# TYPE ukc_serve_requests_total counter
ukc_serve_requests_total{kind="euclidean",outcome="completed",shard="0"} 12
ukc_serve_requests_total{kind="euclidean",outcome="failed",shard="0"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromRoundTrip checks parsePromText inverts write: every sample
// written comes back with its name, labels (escapes included) and value.
func TestPromRoundTrip(t *testing.T) {
	pc := newPromCollector()
	add := pc.add("finite")
	add("ukc_serve_requests_total", map[string]string{"shard": "1", "outcome": "canceled"}, 7)
	add("ukc_serve_cache_bytes", map[string]string{"shard": "1"}, 98304)
	add("ukc_serve_instance_cache_bytes", map[string]string{"shard": "1", "instance": `a\b"c`}, 4096)

	var b strings.Builder
	if err := pc.write(&b); err != nil {
		t.Fatal(err)
	}
	series, err := parsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing own output: %v", err)
	}
	got := series["ukc_serve_instance_cache_bytes"]
	if len(got) != 1 || got[0].labels["instance"] != `a\b"c` || got[0].value != 4096 {
		t.Errorf("instance sample round-trip = %+v", got)
	}
	if s := series["ukc_serve_requests_total"]; len(s) != 1 || s[0].labels["outcome"] != "canceled" || s[0].value != 7 {
		t.Errorf("counter round-trip = %+v", s)
	}
}

// TestPromLabelEscapeRoundTrip pins each escape-worthy byte individually —
// backslash, double quote, newline — and their combinations: whatever an
// instance is named, write produces a parseable exposition and the parse
// recovers the exact name.
func TestPromLabelEscapeRoundTrip(t *testing.T) {
	names := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all"three\of` + "\nthem",
		`trailing\`,
		`{braces}and=equals,commas`,
	}
	pc := newPromCollector()
	add := pc.add("euclidean")
	for i, name := range names {
		add("ukc_serve_instance_cache_bytes", map[string]string{"instance": name}, float64(i+1))
	}
	var b strings.Builder
	if err := pc.write(&b); err != nil {
		t.Fatal(err)
	}
	series, err := parsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing own output: %v\n%s", err, b.String())
	}
	samples := series["ukc_serve_instance_cache_bytes"]
	if len(samples) != len(names) {
		t.Fatalf("round-tripped %d samples, want %d", len(samples), len(names))
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.labels["instance"]] = s.value
	}
	for i, name := range names {
		if got[name] != float64(i+1) {
			t.Errorf("instance %q round-tripped to value %v, want %d", name, got[name], i+1)
		}
	}
}

// TestPromExemplarRoundTrip pins the exemplar wire format: write renders
// the OpenMetrics suffix, and the parser tolerates it — the sample's value
// comes back intact with the exemplar discarded.
func TestPromExemplarRoundTrip(t *testing.T) {
	pc := newPromCollector()
	pc.sample("ukc_http_request_duration_seconds_bucket",
		map[string]string{"le": "0.1"}, 7,
		&promExemplar{labels: map[string]string{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"}, value: 0.063})
	var b strings.Builder
	if err := pc.write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `ukc_http_request_duration_seconds_bucket{le="0.1"} 7 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.063`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, out)
	}
	series, err := parsePromText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parsing exposition with exemplar: %v", err)
	}
	s := series["ukc_http_request_duration_seconds_bucket"]
	if len(s) != 1 || s[0].value != 7 || s[0].labels["le"] != "0.1" {
		t.Fatalf("exemplar sample round-trip = %+v", s)
	}
}

// TestPromCollectZeroInstances walks Collect over a freshly-built server
// with nothing registered: the exposition must still render and parse, with
// the shard-level capacity gauges present and no instance series — the
// scrape contract holds from the first moment of a server's life.
func TestPromCollectZeroInstances(t *testing.T) {
	srv, err := serve.New(ukc.NewSolver[ukc.Vec]())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := newPromCollector()
	srv.Collect(pc.add("euclidean"))
	var b strings.Builder
	if err := pc.write(&b); err != nil {
		t.Fatal(err)
	}
	series, err := parsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing zero-instance exposition: %v\n%s", err, b.String())
	}
	var caps float64
	for _, s := range series["ukc_serve_queue_capacity"] {
		caps += s.value
	}
	if caps <= 0 {
		t.Fatalf("queue capacity total = %v, want > 0 on an empty server", caps)
	}
	if n := len(series["ukc_serve_instance_cache_bytes"]); n != 0 {
		t.Fatalf("zero-instance server exports %d instance cache series", n)
	}
}

// TestPromParseRejectsMalformed pins the parser's error paths — the
// selfcheck relies on a failed parse meaning a malformed exposition.
func TestPromParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`ukc_serve_queue_depth{shard="0"`,         // unterminated label block
		`ukc_serve_queue_depth{shard="0} 1`,       // unterminated value quote
		`ukc_serve_queue_depth{shard=0} 1`,        // unquoted label value
		`ukc_serve_queue_depth{shard="0"} notnum`, // non-numeric value
		`1metric 5`,                    // invalid name
		"# TYPE ukc_serve_queue_depth", // malformed TYPE comment
		`ukc_serve_queue_depth`,        // no value
	} {
		if _, err := parsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("parse accepted malformed input %q", bad)
		}
	}
}

// parsePromText parses an exposition document back into samples keyed by
// series name. It accepts exactly the subset write produces (plus blank
// lines and arbitrary comments) and errors on anything malformed — the
// selfcheck uses it to prove the endpoint serves parseable output.
func parsePromText(r io.Reader) (map[string][]promSample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := map[string][]promSample{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" && len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out[s.name] = append(out[s.name], s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	var s promSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		// Quote-aware scan, not LastIndexByte: an exemplar suffix carries a
		// second label block, and '}' may legitimately appear inside a quoted
		// label value.
		end := labelBlockEnd(rest, i+1)
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err := parsePromLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		s.labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("want 'name value', got %q", line)
		}
		s.name, rest = fields[0], strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
	}
	// Tolerate (and discard) an OpenMetrics exemplar: the value can never
	// contain '#', so everything from the first '#' on is the exemplar.
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if s.name == "" || !isPromName(s.name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	if len(strings.Fields(rest)) != 1 {
		return s, fmt.Errorf("want one value in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("invalid value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// labelBlockEnd returns the index of the '}' closing the label block that
// starts (after its '{') at start, honoring quoting and escapes; -1 when
// unterminated.
func labelBlockEnd(s string, start int) int {
	inQuote := false
	for i := start; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

func parsePromLabels(block string) (map[string]string, error) {
	labels := map[string]string{}
	for block != "" {
		eq := strings.IndexByte(block, '=')
		if eq < 0 || len(block) < eq+2 || block[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair near %q", block)
		}
		key := strings.TrimSpace(block[:eq])
		rest := block[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		block = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		block = strings.TrimSpace(block)
	}
	return labels, nil
}

func isPromName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(name) > 0
}
