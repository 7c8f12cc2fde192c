package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro"
)

// resultRow is one NDJSON push response row.
type resultRow struct {
	Stream  string   `json:"stream"`
	BagT    int      `json:"bag_t"`
	Pending bool     `json:"pending"`
	T       *int     `json:"t"`
	Score   *float64 `json:"score"`
	Lo      *float64 `json:"lo"`
	Up      *float64 `json:"up"`
	Kappa   *float64 `json:"kappa"`
	Alarm   bool     `json:"alarm"`
	Error   string   `json:"error"`
}

// expected is the reference engine's result for one acknowledged row.
type expected struct {
	stream string
	bagT   int
	point  *repro.Point // nil while the window fills
}

// decodeRows parses a 200 response into exactly n rows.
func decodeRows(o *outcome, n int) ([]resultRow, error) {
	if !o.ok() {
		return nil, nil
	}
	rows := make([]resultRow, 0, n)
	dec := json.NewDecoder(bytes.NewReader(o.body))
	for dec.More() {
		var row resultRow
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("undecodable response row %d: %w", len(rows), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("%d response rows for %d pushed", len(rows), n)
	}
	return rows, nil
}

func sameFloat(got *float64, want float64) bool {
	if math.IsNaN(want) {
		return got == nil
	}
	return got != nil && math.Float64bits(*got) == math.Float64bits(want)
}

// compareRow checks one response row against the reference bit for bit.
func compareRow(got *resultRow, want *expected) error {
	if got.Stream != want.stream || got.BagT != want.bagT {
		return fmt.Errorf("row is stream %q bag_t %d, reference has stream %q bag_t %d",
			got.Stream, got.BagT, want.stream, want.bagT)
	}
	p := want.point
	if p == nil {
		if !got.Pending || got.Score != nil {
			return fmt.Errorf("stream %q bag_t %d: scored, reference still filling", got.Stream, got.BagT)
		}
		return nil
	}
	switch {
	case got.Pending || got.T == nil || *got.T != p.T:
		return fmt.Errorf("stream %q bag_t %d: inspection time differs (reference t=%d)", got.Stream, got.BagT, p.T)
	case !sameFloat(got.Score, p.Score), !sameFloat(got.Lo, p.Interval.Lo), !sameFloat(got.Up, p.Interval.Up):
		return fmt.Errorf("stream %q t=%d: score/interval differ from the reference (%v [%v, %v])",
			got.Stream, p.T, p.Score, p.Interval.Lo, p.Interval.Up)
	case !sameFloat(got.Kappa, p.Kappa):
		return fmt.Errorf("stream %q t=%d: kappa differs from the reference (%v)", got.Stream, p.T, p.Kappa)
	case got.Alarm != p.Alarm:
		return fmt.Errorf("stream %q t=%d: alarm %v, reference %v", got.Stream, p.T, got.Alarm, p.Alarm)
	}
	return nil
}

// checker replays the acknowledged rows through an in-process engine
// with the servers' configuration and compares every response row.
type checker struct {
	g      *generator
	eng    *repro.Engine
	clock  map[int32]int          // acknowledged bags per stream
	expect map[*batch][]*expected // per batch, per row; nil = not acknowledged
	scored int                    // rows compared that carried a score
	rows   int                    // rows compared
}

func newChecker(w *workload, g *generator, dseed int64) (*checker, error) {
	eng, err := w.newEngine(dseed)
	if err != nil {
		return nil, err
	}
	return &checker{g: g, eng: eng, clock: map[int32]int{}, expect: map[*batch][]*expected{}}, nil
}

func (c *checker) close() { c.eng.Shutdown() }

// feed pushes the acknowledged rows of b (rows, as decoded from the
// response) through the reference and records what every acknowledged
// row must read.
func (c *checker) feed(b *batch, rows []resultRow) error {
	acked := &batch{}
	var idx []int
	for i, r := range b.rows {
		if rows != nil && rows[i].Error == "" {
			acked.rows = append(acked.rows, r)
			idx = append(idx, i)
		}
	}
	exp := make([]*expected, len(b.rows))
	c.expect[b] = exp
	if len(idx) == 0 {
		return nil
	}
	bags := c.g.streamBags(acked, c.clock)
	res, err := c.eng.PushBatch(bags)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	for k, i := range idx {
		exp[i] = &expected{stream: bags[k].StreamID, bagT: bags[k].Bag.T, point: res[k].Point}
	}
	return nil
}

// compare checks every acknowledged row of out against b's reference.
func (c *checker) compare(b *batch, out *outcome) error {
	rows, err := decodeRows(out, len(b.rows))
	if err != nil {
		return err
	}
	return c.compareRows(b, rows)
}

func (c *checker) compareRows(b *batch, rows []resultRow) error {
	exp, ok := c.expect[b]
	if !ok {
		return fmt.Errorf("no reference for batch")
	}
	for i := range rows {
		if rows[i].Error != "" || exp[i] == nil {
			continue
		}
		if err := compareRow(&rows[i], exp[i]); err != nil {
			return err
		}
		c.rows++
		if exp[i].point != nil {
			c.scored++
		}
	}
	return nil
}

// checkPhases feeds the reference every phase in stream order and
// compares every run of every phase.
func (c *checker) checkPhases(phases []*phase) error {
	for _, ph := range phases {
		final := len(ph.runs) - 1
		for i, b := range ph.batches {
			rows, err := decodeRows(&ph.runs[final][i], len(b.rows))
			if err == nil {
				err = c.feed(b, rows)
			}
			if err == nil {
				err = c.compareRows(b, rows)
			}
			if err != nil {
				return fmt.Errorf("%s batch %d: %w", ph.name, i, err)
			}
			for run := 0; run < final; run++ {
				if err := c.compare(b, &ph.runs[run][i]); err != nil {
					return fmt.Errorf("%s run %d batch %d: %w", ph.name, run, i, err)
				}
			}
		}
	}
	return nil
}

// checkStreams compares the members' /v1/streams push counts with the
// acknowledged rows. Streams spilled by a bounded pool are not listed;
// every listed stream must match, and without a pool every stream must
// be listed.
func (c *checker) checkStreams(pages [][]byte, pooled bool) error {
	want := map[string]int{}
	for s, n := range c.clock {
		want[c.g.ids[s]] = n
	}
	listed := map[string]bool{}
	for _, page := range pages {
		var doc struct {
			Streams []struct {
				ID     string `json:"id"`
				Pushed int    `json:"pushed"`
			} `json:"streams"`
		}
		if err := json.Unmarshal(page, &doc); err != nil {
			return fmt.Errorf("/v1/streams: %w", err)
		}
		for _, st := range doc.Streams {
			n, ok := want[st.ID]
			if !ok || n != st.Pushed {
				return fmt.Errorf("/v1/streams: stream %q pushed=%d, acknowledged %d", st.ID, st.Pushed, n)
			}
			if listed[st.ID] {
				return fmt.Errorf("/v1/streams: stream %q listed twice", st.ID)
			}
			listed[st.ID] = true
		}
	}
	if !pooled && len(listed) != len(want) {
		return fmt.Errorf("/v1/streams lists %d streams, %d were acknowledged", len(listed), len(want))
	}
	return nil
}
