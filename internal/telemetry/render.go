package telemetry

import (
	"io"
	"sort"
	"strconv"
)

// appendEscaped appends a label value escaped per the Prometheus text
// exposition format: backslash, double-quote and newline. (strconv.Quote
// is close but emits Go escapes like \t that Prometheus parsers reject.)
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// formatBound renders a bucket's upper bound in the exposition unit.
func formatBound(bound int64, scale float64) string {
	if scale == 1 {
		return strconv.FormatInt(bound, 10)
	}
	return strconv.FormatFloat(float64(bound)*scale, 'g', -1, 64)
}

// WritePrometheus renders every family in the registry in the Prometheus
// text exposition format: histogram families as cumulative `_bucket`
// samples with `le` bounds plus `_sum` and `_count`, counter and gauge
// families as plain samples. Families render in one pass sorted by name,
// label values sorted within a family, so consecutive scrapes of the
// same state are byte-identical whatever the registration order. Each
// family is one Write; rendering stops at the first write error.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()
	// Gauge collectors reach into their owners' locks, so families render
	// with the registry unlocked.
	var buf []byte
	for _, f := range fams {
		buf = f.appendText(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
}

// appendHeader appends a family's HELP and TYPE lines.
func appendHeader(b []byte, name, help, typ string) []byte {
	if help != "" {
		b = append(append(append(append(b, "# HELP "...), name...), ' '), help...)
		b = append(b, '\n')
	}
	b = append(append(append(append(b, "# TYPE "...), name...), ' '), typ...)
	return append(b, '\n')
}

// appendSeries appends one sample up to its value: name+suffix, the
// label block {labelKey="labelValue",le="le"} with whichever of the two
// labels is set (none: no block), and the separating space.
func appendSeries(b []byte, name, suffix, labelKey, labelValue, le string) []byte {
	b = append(append(b, name...), suffix...)
	if labelKey != "" || le != "" {
		b = append(b, '{')
		if labelKey != "" {
			b = append(appendEscaped(append(append(b, labelKey...), `="`...), labelValue), '"')
			if le != "" {
				b = append(b, ',')
			}
		}
		if le != "" {
			b = append(append(append(b, `le="`...), le...), '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

func (f *Family) appendText(b []byte) []byte {
	b = appendHeader(b, f.name, f.help, "histogram")
	for _, v := range f.labelValues() {
		b = f.appendOne(b, v, f.with(v).Snapshot())
	}
	return b
}

// appendOne appends the cumulative bucket series for one label value.
// Empty buckets below the first and above the last observation are
// elided (legal: buckets are cumulative and +Inf always closes the
// series), keeping 40-bucket families compact on the wire.
func (f *Family) appendOne(b []byte, value string, s HistSnapshot) []byte {
	lo, hi := -1, -1
	for i, c := range s.Counts {
		if c != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	cum := int64(0)
	if lo >= 0 {
		for i := lo; i <= hi; i++ {
			cum += s.Counts[i]
			b = appendSeries(b, f.name, "_bucket", f.labelKey, value, formatBound(1<<uint(i), f.scale))
			b = append(strconv.AppendInt(b, cum, 10), '\n')
		}
	}
	b = appendSeries(b, f.name, "_bucket", f.labelKey, value, "+Inf")
	b = append(strconv.AppendInt(b, cum+s.Inf, 10), '\n')
	b = appendSeries(b, f.name, "_sum", f.labelKey, value, "")
	if f.scale == 1 {
		b = strconv.AppendInt(b, s.Sum, 10)
	} else {
		b = strconv.AppendFloat(b, float64(s.Sum)*f.scale, 'g', -1, 64)
	}
	b = append(b, '\n')
	b = appendSeries(b, f.name, "_count", f.labelKey, value, "")
	return append(strconv.AppendInt(b, s.Count, 10), '\n')
}

func (f *CounterFamily) appendText(b []byte) []byte {
	b = appendHeader(b, f.name, f.help, "counter")
	for _, v := range f.labelValues() {
		b = appendSeries(b, f.name, "", f.labelKey, v, "")
		b = append(strconv.AppendInt(b, f.with(v).Value(), 10), '\n')
	}
	return b
}

func (f *gaugeFamily) appendText(b []byte) []byte {
	b = appendHeader(b, f.name, f.help, "gauge")
	type sample struct {
		label string
		v     float64
	}
	var samples []sample
	f.collect(func(labelValue string, v float64) {
		samples = append(samples, sample{labelValue, v})
	})
	sort.Slice(samples, func(i, j int) bool { return samples[i].label < samples[j].label })
	for _, s := range samples {
		b = appendSeries(b, f.name, "", f.labelKey, s.label, "")
		b = append(strconv.AppendFloat(b, s.v, 'g', -1, 64), '\n')
	}
	return b
}
