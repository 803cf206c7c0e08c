package main

// prom.go renders the serving layer's Collect walk into the Prometheus
// text exposition format (text/plain; version 0.0.4) with no client
// library: the vocabulary is small and fully known (see serve.Collect),
// so a hand-rolled writer — family grouping, one writer for every
// histogram, label escaping, deterministic ordering — is ~100 lines and
// keeps the binary dependency-free. Every sample line is exactly
// name{labels} value: no timestamps, and no exemplars, which that format
// does not have. parsePromText (prom_test.go) is the strict inverse the
// tests use to assert the exposition stays valid.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/obs"
)

// promSample is one exposition line, name{labels} value, grouped under its
// family: the series name itself, or the histogram a _bucket, _sum or
// _count series belongs to.
type promSample struct {
	family string
	name   string
	labels map[string]string
	value  float64
}

// promCollector accumulates samples across Collect walks (one per instance
// kind, each stamped with a kind label) for a single rendering pass.
type promCollector struct {
	samples []promSample
	hist    map[string]bool // families writeHistogram rendered
}

func newPromCollector() *promCollector {
	return &promCollector{hist: make(map[string]bool)}
}

// collect runs one serve.Collect walk into the scrape, stamping every
// series with the kind label; Collect hands each call a fresh label map,
// which is stamped in place.
func (p *promCollector) collect(kind string, walk func(func(string, map[string]string, float64), func(string, map[string]string, obs.HistogramSnapshot))) {
	walk(func(name string, labels map[string]string, value float64) {
		labels["kind"] = kind
		p.sample(name, labels, value)
	}, func(name string, labels map[string]string, h obs.HistogramSnapshot) {
		labels["kind"] = kind
		writeHistogram(p, name, labels, h)
	})
}

// sample appends one counter or gauge sample.
func (p *promCollector) sample(name string, labels map[string]string, value float64) {
	p.samples = append(p.samples, promSample{family: name, name: name, labels: labels, value: value})
}

// promType gives the family's TYPE: histogram for what writeHistogram
// rendered, counter on the _total convention, else gauge.
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

// writeHistogram renders an obs histogram snapshot as the Prometheus
// cumulative-bucket series — name_bucket{le=...} up to le="+Inf", which
// equals name_count, then name_sum — under one histogram TYPE line. It is
// the exposition's only histogram writer: the serving layer's latency and
// cache-build histograms, the gateway's request durations and the runtime's
// GC pauses all go through it. labels are copied, never modified.
func writeHistogram(pc *promCollector, name string, labels map[string]string, snap obs.HistogramSnapshot) {
	pc.hist[name] = true
	series := func(suffix, le string, v float64) {
		m := make(map[string]string, len(labels)+1)
		for k, v := range labels {
			m[k] = v
		}
		if le != "" {
			m["le"] = le
		}
		pc.samples = append(pc.samples, promSample{family: name, name: name + suffix, labels: m, value: v})
	}
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = strconv.FormatFloat(snap.Bounds[i], 'g', -1, 64)
		}
		series("_bucket", le, float64(cum))
	}
	series("_sum", "", snap.Sum)
	series("_count", "", float64(snap.Count))
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
		byFamily[s.family] = append(byFamily[s.family], s)
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
			lines = append(lines, s.name+renderLabels(s.labels)+" "+strconv.FormatFloat(s.value, 'g', -1, 64))
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
