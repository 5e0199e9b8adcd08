package main

import (
	"strconv"
	"strings"
)

// promSample holds what the benchmark reads off one scrape of the
// program's Prometheus text: per histogram series its _sum and _count,
// per counter series its value. Keys are the series name with its label
// set exactly as rendered, e.g. `mirage_member_duration_seconds{op="test"}`
// or `mirage_admission_wait_seconds`. Bucket lines are ignored.
type promSample struct {
	sum, count map[string]float64
	counter    map[string]float64
}

// parseProm reads Prometheus exposition text as telemetry.Registry's
// WritePrometheus renders it. Family names are the program's stability
// promise (ROADMAP item 2); this parser and the names in layers.go are
// the benchmark's only dependency on it.
func parseProm(text string) promSample {
	s := promSample{sum: map[string]float64{}, count: map[string]float64{}, counter: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
		case strings.HasSuffix(name, "_sum"):
			s.sum[strings.TrimSuffix(name, "_sum")+labels] = v
		case strings.HasSuffix(name, "_count"):
			s.count[strings.TrimSuffix(name, "_count")+labels] = v
		default:
			s.counter[series] = v
		}
	}
	return s
}

// histDelta is the growth of one histogram series between two scrapes.
type histDelta struct{ sum, count float64 }

func (d histDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

// hist returns the growth of series from before to s, and whether the
// series is present in s at all.
func (s promSample) hist(before promSample, series string) (histDelta, bool) {
	_, ok := s.count[series]
	return histDelta{s.sum[series] - before.sum[series], s.count[series] - before.count[series]}, ok
}

// family sums hist over every label set of a histogram family.
func (s promSample) family(before promSample, name string) (histDelta, bool) {
	var d histDelta
	found := false
	for series := range s.count {
		if series == name || strings.HasPrefix(series, name+"{") {
			h, _ := s.hist(before, series)
			d.sum += h.sum
			d.count += h.count
			found = true
		}
	}
	return d, found
}

// counterDelta sums a counter family's growth over every label set.
func (s promSample) counterDelta(before promSample, name string) float64 {
	var d float64
	for series, v := range s.counter {
		if series == name || strings.HasPrefix(series, name+"{") {
			d += v - before.counter[series]
		}
	}
	return d
}
