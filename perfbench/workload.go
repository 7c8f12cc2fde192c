package main

import (
	"fmt"
	"math"
	"strconv"

	"repro"
)

// workload is one traffic mix and the bagcpd deployment it drives.
// Every size below is fixed per workload, so the parent and the change
// under test do identical work for a given --seed and --seconds.
type workload struct {
	name string
	why  string

	// Detector configuration, shared by every bagcpd process and by the
	// in-process reference and traced engines.
	hist             bool    // 1-D histogram signatures; false = k-means
	histLo, histHi   float64 // histogram range
	histBins         int
	k                int // k-means signature size
	tau, tauPrime    int
	replicates       int
	dim, points      int     // bag shape: points of dim coordinates
	shift            float64 // planted mean shift between regimes
	streams, rowsPer int     // live streams; rows per push batch

	// Deployment.
	routed  bool // two -serve members behind one -route
	oplog   bool // -oplog DIR on every member
	poolMax int  // -pool-max (0 = unbounded)

	// Load shape. nominalBagsPerS sizes the closed-loop phase from
	// --seconds. openBagsPerS is the open-loop arrival rate: the open loop
	// sends over one connection, and the rate keeps that connection about
	// a third busy (batch service times measured on a 2-vCPU Xeon when
	// the benchmark was defined). Busier, a 15% slowdown of the box raised
	// p99 by half; no run may drift into a growing backlog.
	nominalBagsPerS float64
	openBagsPerS    float64
}

var workloads = []*workload{
	{
		name: "direct-hist",
		why:  "one bagcpd -serve, 1-D histogram bags: the EMD is nearly free, so NDJSON decode/encode and the HTTP path dominate",
		hist: true, histLo: -6, histHi: 10, histBins: 32,
		tau: 5, tauPrime: 5, replicates: 64,
		dim: 1, points: 100, shift: 2.5,
		streams: 1024, rowsPer: 32,
		nominalBagsPerS: 9000, openBagsPerS: 2500,
	},
	{
		name: "durable-kmeans",
		why:  "bagcpd -serve -oplog -pool-max: 3-D k-means bags, simplex EMD and bootstrap dominate, every ack waits on fsync, the Zipf tail spills",
		k:    8, tau: 5, tauPrime: 5, replicates: 200,
		dim: 3, points: 40, shift: 1.5,
		streams: 512, rowsPer: 16,
		oplog: true, poolMax: 384,
		nominalBagsPerS: 2300, openBagsPerS: 640,
	},
	{
		name: "routed-hist",
		why:  "direct-hist traffic through bagcpd -route to two members: same detector work, so the difference is the router",
		hist: true, histLo: -6, histHi: 10, histBins: 32,
		tau: 5, tauPrime: 5, replicates: 64,
		dim: 1, points: 100, shift: 2.5,
		streams: 1024, rowsPer: 32,
		routed:          true,
		nominalBagsPerS: 3900, openBagsPerS: 1200,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// detectorSeed derives the engine seed every bagcpd process of a run
// shares from the workload seed.
func detectorSeed(seed uint64) int64 { return int64(seed%1_000_003) + 1 }

// window is the number of bags a stream needs before it scores.
func (w *workload) window() int { return w.tau + w.tauPrime }

// detectorFlags are the bagcpd flags that fix the detector; every
// -serve member of a run gets the same ones.
func (w *workload) detectorFlags(seed int64) []string {
	f := []string{
		"-tau", strconv.Itoa(w.tau), "-tau-prime", strconv.Itoa(w.tauPrime),
		"-bootstrap", strconv.Itoa(w.replicates),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if w.hist {
		return append(f, "-hist-lo", fmtFloat(w.histLo), "-hist-hi", fmtFloat(w.histHi),
			"-hist-bins", strconv.Itoa(w.histBins))
	}
	return append(f, "-k", strconv.Itoa(w.k))
}

// newEngine builds an in-process engine with exactly the configuration
// bagcpd derives from detectorFlags (same options, tag and defaults).
func (w *workload) newEngine(seed int64) (*repro.Engine, error) {
	var factory repro.BuilderFactory
	var tag string
	if w.hist {
		factory = repro.HistogramFactory(w.histLo, w.histHi, w.histBins)
		tag = fmt.Sprintf("hist(lo=%g,hi=%g,bins=%d)", w.histLo, w.histHi, w.histBins)
	} else {
		factory = repro.KMeansFactory(w.k)
		tag = fmt.Sprintf("kmeans(k=%d)", w.k)
	}
	return repro.NewEngine(
		repro.WithTau(w.tau), repro.WithTauPrime(w.tauPrime),
		repro.WithStatistic("kl"),
		repro.WithBuilderFactory(factory),
		repro.WithBuilderTag(tag),
		repro.WithBootstrap(repro.BootstrapConfig{Replicates: w.replicates, Alpha: 0.05}),
		repro.WithSeed(seed),
	)
}

// plan is the fixed amount of work one run does.
type plan struct {
	setupRuns      int     // fresh deployments timed to a full window
	segments       int     // closed/open segment pairs, interleaved
	closedPerConn  int     // closed-loop batches per connection per segment
	openBatches    int     // open-loop batches per segment
	openBatchPerS  float64 // open-loop batch rate
	recoverCycles  int     // kill/restart cycles timed for recover_s
	recoverBatches int     // batches pushed before each kill
}

// conns is the number of client connections: the box's core count.
const conns = 2

// minOpenBatches keeps at least ten samples beyond the open-loop p99.
const minOpenBatches = 1000

func (w *workload) plan(seconds int, smoke bool) plan {
	if smoke {
		return plan{setupRuns: 1, segments: 1, closedPerConn: 3, openBatches: 12,
			openBatchPerS: 40, recoverCycles: 1, recoverBatches: 2}
	}
	p := plan{setupRuns: 3, segments: 5, recoverCycles: 9, recoverBatches: 10}
	p.openBatchPerS = w.openBagsPerS / float64(w.rowsPer)
	secs := float64(seconds)
	// A third of the measured time is closed loop, the rest open loop.
	closedBatches := secs / 3 * w.nominalBagsPerS / float64(w.rowsPer)
	p.closedPerConn = max(1, int(math.Round(closedBatches/float64(conns*p.segments))))
	open := max(minOpenBatches, int(math.Round(secs*2/3*p.openBatchPerS)))
	p.openBatches = (open + p.segments - 1) / p.segments
	return p
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
