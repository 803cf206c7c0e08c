package main

// prom.go renders the serving layer's Collect walk into the Prometheus
// text exposition format (text/plain; version 0.0.4) with no client
// library: the vocabulary is small and fully known (see serve.Collect),
// so a hand-rolled writer — family grouping, TYPE inference from the name
// suffix, label escaping, deterministic ordering — is ~100 lines and keeps
// the binary dependency-free. parsePromText (prom_test.go) is the inverse
// the tests use to assert the exposition stays valid.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promSample is one exposition line: name{labels} value, optionally with an
// OpenMetrics exemplar appended (# {labels} value).
type promSample struct {
	name     string
	labels   map[string]string
	value    float64
	exemplar *promExemplar
}

// promExemplar is an OpenMetrics exemplar: a concrete observation (and the
// trace it belongs to) attached to the histogram bucket it landed in, so a
// dashboard's p99 spike links straight to a retained trace.
type promExemplar struct {
	labels map[string]string // typically {"trace_id": "..."}
	value  float64
}

// promCollector accumulates samples across Collect walks (one per instance
// kind, each stamped with a kind label) for a single rendering pass.
type promCollector struct {
	samples []promSample
	hist    map[string]bool // family name -> has histogram-suffixed series
}

func newPromCollector() *promCollector {
	return &promCollector{hist: make(map[string]bool)}
}

// add returns a serve.Collect callback stamping every sample with the kind
// label. The label map is mutated in place — Collect guarantees a fresh map
// per sample.
func (p *promCollector) add(kind string) func(name string, labels map[string]string, value float64) {
	return func(name string, labels map[string]string, value float64) {
		if kind != "" {
			labels["kind"] = kind
		}
		if fam := promFamily(name); fam != name {
			p.hist[fam] = true
		}
		p.samples = append(p.samples, promSample{name: name, labels: labels, value: value})
	}
}

// sample appends one sample directly (runtime/HTTP metrics the serve.Collect
// walk does not produce), optionally with an exemplar.
func (p *promCollector) sample(name string, labels map[string]string, value float64, ex *promExemplar) {
	if fam := promFamily(name); fam != name {
		p.hist[fam] = true
	}
	p.samples = append(p.samples, promSample{name: name, labels: labels, value: value, exemplar: ex})
}

// promFamily strips the histogram series suffixes; for scalar series the
// family is the name itself.
func promFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// promType infers the family's TYPE from its name: histogram when any
// suffixed series was seen, counter on the _total convention, else gauge.
func (p *promCollector) promType(family string) string {
	switch {
	case p.hist[family]:
		return "histogram"
	case strings.HasSuffix(family, "_total"):
		return "counter"
	default:
		return "gauge"
	}
}

// labelEscaper is shared: a Replacer builds its lookup table on first use,
// so one made per call would build it for every label of every scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// renderLabels produces the sorted {k="v",...} block ("" when empty).
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// Manual quoting, not %q: Go quoting escapes non-ASCII, while the
		// exposition format wants raw UTF-8 with only \, " and newline
		// escaped.
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// write renders the accumulated samples: families sorted by name, one TYPE
// header each, samples within a family sorted by their rendered label block
// — deterministic output, which is what makes a golden test possible.
func (p *promCollector) write(w io.Writer) error {
	byFamily := map[string][]promSample{}
	for _, s := range p.samples {
		fam := promFamily(s.name)
		byFamily[fam] = append(byFamily[fam], s)
	}
	families := make([]string, 0, len(byFamily))
	for fam := range byFamily {
		families = append(families, fam)
	}
	sort.Strings(families)
	for _, fam := range families {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, p.promType(fam)); err != nil {
			return err
		}
		lines := make([]string, 0, len(byFamily[fam]))
		for _, s := range byFamily[fam] {
			line := fmt.Sprintf("%s%s %s", s.name, renderLabels(s.labels), strconv.FormatFloat(s.value, 'g', -1, 64))
			if s.exemplar != nil {
				line += fmt.Sprintf(" # %s %s", renderLabels(s.exemplar.labels), strconv.FormatFloat(s.exemplar.value, 'g', -1, 64))
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		for _, line := range lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
