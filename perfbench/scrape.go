package main

import (
	"bytes"
	"io"
	"strings"

	"repro/internal/obs"
)

// counters is a /metrics page flattened to series -> value, where a
// series is the sample name plus its canonical label set.
type counters map[string]float64

// scrape reads addr's /metrics page. Behind a router the page also
// carries the members' series summed fleet-wide.
func scrape(c *client, addr string) (counters, error) {
	body, err := c.get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseCounters(bytes.NewReader(body))
}

func parseCounters(r io.Reader) (counters, error) {
	fams, err := obs.ParseExposition(r)
	if err != nil {
		return nil, err
	}
	out := counters{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name+s.Labels] += s.Value
		}
	}
	return out, nil
}

// sum adds every series named name whose labels contain each of the
// label fragments (e.g. `stage="emd"`).
func (c counters) sum(name string, fragments ...string) float64 {
	total := 0.0
	for k, v := range c {
		labels, ok := strings.CutPrefix(k, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		match := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after - before for one series family.
func delta(before, after counters, name string, fragments ...string) float64 {
	return after.sum(name, fragments...) - before.sum(name, fragments...)
}
