package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"repro"
)

// The generator turns a workload seed into NDJSON push bodies. Streams
// are drawn Zipf-skewed; each stream alternates between two regimes
// whose means differ by workload.shift, switching every 30-50 bags, so
// every stream carries a planted change about every 40 bags. Bags are
// drawn from a seeded pool per regime, so rendering a body is a byte
// copy and the reference check can rebuild any row from (pool, index).
//
// Streams are partitioned across the client connections (stream index
// mod conns). A connection only ever sends its own streams, and it sends
// them in generation order, so each stream's bag order on the server is
// the generation order whatever the interleaving of connections.

const (
	poolSize  = 512 // bags per regime
	zipfS     = 1.1
	zipfV     = 4
	segMin    = 30 // regime lengths are segMin..segMin+segSpan-1 bags
	segSpan   = 21
	valueUnit = 100 // values are rounded to 1/valueUnit
)

// rowRef identifies one generated row: its stream and the pooled bag.
type rowRef struct {
	stream int32
	regime uint8
	bag    int32
}

// batch is one push request: the rows it carries and, once rendered,
// its body. conn is the client connection that sends it.
type batch struct {
	conn int
	rows []rowRef
	body []byte
}

type pooledBag struct {
	text   []byte
	points [][]float64
}

type streamState struct {
	rng    *rand.Rand
	left   int // bags left in the current regime
	regime uint8
}

type generator struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int // Zipf rank -> stream index
	prefix  [][]byte
	ids     []string
	streams []streamState
	pool    [2][]pooledBag
}

func newGenerator(w *workload, seed uint64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	g.zipf = rand.NewZipf(g.rng, zipfS, zipfV, uint64(w.streams-1))
	g.perm = g.rng.Perm(w.streams)
	for s := 0; s < w.streams; s++ {
		id := fmt.Sprintf("s%04d", s)
		g.ids = append(g.ids, id)
		g.prefix = append(g.prefix, []byte(`{"stream":"`+id+`","bag":`))
		r := rand.New(rand.NewPCG(seed, uint64(s)+1))
		g.streams = append(g.streams, streamState{rng: r, left: 1 + r.IntN(segMin+segSpan), regime: uint8(r.IntN(2))})
	}
	poolRng := rand.New(rand.NewPCG(seed, 0))
	for regime := range g.pool {
		mean := float64(regime) * w.shift
		for i := 0; i < poolSize; i++ {
			pts := make([][]float64, w.points)
			text := []byte{'['}
			for p := range pts {
				pts[p] = make([]float64, w.dim)
				if p > 0 {
					text = append(text, ',')
				}
				text = append(text, '[')
				for d := range pts[p] {
					v := math.Round((mean+poolRng.NormFloat64())*valueUnit) / valueUnit
					pts[p][d] = v
					if d > 0 {
						text = append(text, ',')
					}
					text = strconv.AppendFloat(text, v, 'f', -1, 64)
				}
				text = append(text, ']')
			}
			text = append(text, ']')
			g.pool[regime] = append(g.pool[regime], pooledBag{text: text, points: pts})
		}
	}
	return g
}

// next draws the next bag of stream s.
func (g *generator) next(s int) rowRef {
	st := &g.streams[s]
	if st.left == 0 {
		st.regime ^= 1
		st.left = segMin + st.rng.IntN(segSpan)
	}
	st.left--
	return rowRef{stream: int32(s), regime: st.regime, bag: int32(st.rng.IntN(poolSize))}
}

// nextFor draws a Zipf-distributed row among connection conn's streams.
func (g *generator) nextFor(conn int) rowRef {
	for {
		s := g.perm[g.zipf.Uint64()]
		if s%conns == conn {
			return g.next(s)
		}
	}
}

// setup returns the batches that fill every stream's window: each
// connection sends its streams' first window() bags, stream by stream.
func (g *generator) setup() []*batch { return g.sweep(g.w.window()) }

// sweep returns per bags of every stream, stream by stream, each
// connection sending its own streams.
func (g *generator) sweep(per int) []*batch {
	var out []*batch
	for c := 0; c < conns; c++ {
		var rows []rowRef
		for s := c; s < g.w.streams; s += conns {
			for i := 0; i < per; i++ {
				rows = append(rows, g.next(s))
			}
		}
		for len(rows) > 0 {
			n := min(g.w.rowsPer, len(rows))
			out = append(out, &batch{conn: c, rows: rows[:n:n]})
			rows = rows[n:]
		}
	}
	return out
}

// batches returns n Zipf batches; batch i goes to connection i mod conns.
func (g *generator) batches(n int) []*batch {
	out := make([]*batch, n)
	for i := range out {
		b := &batch{conn: i % conns, rows: make([]rowRef, g.w.rowsPer)}
		for r := range b.rows {
			b.rows[r] = g.nextFor(b.conn)
		}
		out[i] = b
	}
	return out
}

// render builds the NDJSON bodies of bs.
func (g *generator) render(bs []*batch) {
	for _, b := range bs {
		size := 0
		for _, r := range b.rows {
			size += len(g.prefix[r.stream]) + len(g.pool[r.regime][r.bag].text) + 2
		}
		body := make([]byte, 0, size)
		for _, r := range b.rows {
			body = append(body, g.prefix[r.stream]...)
			body = append(body, g.pool[r.regime][r.bag].text...)
			body = append(body, '}', '\n')
		}
		b.body = body
	}
}

// release drops the rendered bodies of bs once they have been sent.
func release(bs []*batch) {
	for _, b := range bs {
		b.body = nil
	}
}

// streamBags returns the engine input of b's rows, with each row's bag
// time taken from (and advancing) clock.
func (g *generator) streamBags(b *batch, clock map[int32]int) []repro.StreamBag {
	out := make([]repro.StreamBag, len(b.rows))
	for i, r := range b.rows {
		t := clock[r.stream]
		clock[r.stream] = t + 1
		out[i] = repro.StreamBag{StreamID: g.ids[r.stream], Bag: repro.NewBag(t, g.pool[r.regime][r.bag].points)}
	}
	return out
}
