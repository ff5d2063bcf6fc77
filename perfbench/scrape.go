package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one /metrics snapshot: series (name plus labels) → value.
type scrape map[string]float64

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// fetchMetrics reads a process's Prometheus text exposition.
func fetchMetrics(baseURL string) (scrape, error) {
	resp, err := scrapeClient.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", baseURL, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// seriesName splits "name{labels}" into name and label text.
func seriesName(series string) (string, string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// sum adds every series of one metric name, across labels.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if n, _ := seriesName(k); n == name {
			t += v
		}
	}
	return t
}

// max returns the largest series value of one metric name.
func (s scrape) max(name string) float64 {
	m := 0.0
	for k, v := range s {
		if n, _ := seriesName(k); n == name && v > m {
			m = v
		}
	}
	return m
}

// buckets sums a histogram's cumulative bucket counts across label
// sets, keyed by upper bound.
func (s scrape) buckets(name string) map[float64]float64 {
	out := make(map[float64]float64)
	for k, v := range s {
		n, labels := seriesName(k)
		if n != name+"_bucket" {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		rest := labels[i+4:]
		le := rest[:strings.IndexByte(rest, '"')]
		var ub float64
		if le == "+Inf" {
			ub = math.Inf(1)
		} else if f, err := strconv.ParseFloat(le, 64); err == nil {
			ub = f
		} else {
			continue
		}
		out[ub] += v
	}
	return out
}

// histDelta is a histogram's growth between two scrapes of possibly
// several processes.
type histDelta struct {
	bounds []float64 // ascending upper bounds
	cum    []float64 // cumulative counts
}

func deltaHist(name string, before, after []scrape) histDelta {
	acc := make(map[float64]float64)
	for i := range after {
		for ub, v := range after[i].buckets(name) {
			acc[ub] += v
		}
		if i < len(before) && before[i] != nil {
			for ub, v := range before[i].buckets(name) {
				acc[ub] -= v
			}
		}
	}
	var h histDelta
	for ub := range acc {
		h.bounds = append(h.bounds, ub)
	}
	sort.Float64s(h.bounds)
	for _, ub := range h.bounds {
		h.cum = append(h.cum, acc[ub])
	}
	return h
}

func (h histDelta) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile returns the upper bound of the bucket holding the q-th
// quantile (0 for an empty histogram; the largest finite bound when
// the quantile falls in +Inf).
func (h histDelta) quantile(q float64) float64 {
	n := h.count()
	if n <= 0 {
		return 0
	}
	target := q * n
	for i, c := range h.cum {
		if c >= target {
			if math.IsInf(h.bounds[i], 1) && i > 0 {
				return h.bounds[i-1]
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// maxObserved returns the upper bound of the highest non-empty bucket.
func (h histDelta) maxObserved() float64 {
	prev := 0.0
	top := 0.0
	for i, c := range h.cum {
		if c > prev {
			top = h.bounds[i]
			if math.IsInf(top, 1) && i > 0 {
				top = h.bounds[i-1]
			}
		}
		prev = c
	}
	return top
}

// scrapeAll snapshots every process that serves /metrics.
func (c *deployment) scrapeAll() ([]scrape, error) {
	out := make([]scrape, len(c.procs))
	for i, p := range c.procs {
		if p.httpURL == "" {
			continue
		}
		s, err := fetchMetrics(p.httpURL)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// deltaSum is a counter's summed growth over the processes named (all
// when name is empty).
func (c *deployment) deltaSum(metric, procName string, before, after []scrape) float64 {
	var d float64
	for i, p := range c.procs {
		if (procName != "" && p.name != procName) || after[i] == nil {
			continue
		}
		d += after[i].sum(metric)
		if before[i] != nil {
			d -= before[i].sum(metric)
		}
	}
	return d
}

// procScrapes selects the scrapes of the processes with one name.
func (c *deployment) procScrapes(procName string, ss []scrape) []scrape {
	var out []scrape
	for i, p := range c.procs {
		if p.name == procName {
			out = append(out, ss[i])
		}
	}
	return out
}
