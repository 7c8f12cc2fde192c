package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// phase is one block of batches in stream order. A phase usually runs
// once; the setup phase runs once per fresh deployment, and each of its
// runs must produce the same rows.
type phase struct {
	name    string
	kind    string // setup | closed | open | resident | recover | continue
	batches []*batch
	runs    [][]outcome
	walls   []time.Duration
}

func (ph *phase) last() []outcome { return ph.runs[len(ph.runs)-1] }

// runner executes one benchmark run of one workload.
type runner struct {
	w     *workload
	p     plan
	g     *generator
	bin   string
	work  string
	dseed int64

	phases []*phase // in the order the streams saw them
	dep    *deployment
	cl     *client

	// Measurements of the untraced run.
	setupS        []float64
	recoverS      []float64
	replayRate    []float64 // oplog records replayed per second, per recovery
	drainRestartS float64
	closedCPU     []float64 // server CPU seconds of each closed-loop segment
	stealS        float64   // hypervisor steal over the timed segments
	rssMB         float64
	before        counters // entry point's /metrics before the first timed segment
	after         counters // ... and after the last one
	streamPages   [][]byte // /v1/streams of every member after the final batch
}

func newRunner(w *workload, p plan, seed uint64, bin, work string) *runner {
	return &runner{w: w, p: p, g: newGenerator(w, seed), bin: bin, work: work, dseed: detectorSeed(seed)}
}

func (r *runner) add(name, kind string, bs []*batch) {
	r.phases = append(r.phases, &phase{name: name, kind: kind, batches: bs})
}

// planPhases generates every batch of the run, in stream order, before
// anything is timed.
func (r *runner) planPhases() {
	r.add("setup", "setup", r.g.setup())
	for s := 0; s < r.p.segments; s++ {
		r.add(fmt.Sprintf("closed-%d", s), "closed", r.g.batches(conns*r.p.closedPerConn))
		r.add(fmt.Sprintf("open-%d", s), "open", r.g.batches(r.p.openBatches))
	}
	if r.w.poolMax > 0 {
		r.add("resident", "resident", r.g.sweep(1))
	}
	for c := 0; c < r.p.recoverCycles; c++ {
		r.add(fmt.Sprintf("recover-%d", c), "recover", r.g.batches(r.p.recoverBatches))
	}
	r.add("continue", "continue", r.g.batches(conns))
}

func (r *runner) byKind(kind string) []*phase {
	var out []*phase
	for _, ph := range r.phases {
		if ph.kind == kind {
			out = append(out, ph)
		}
	}
	return out
}

// quiesce collects the harness's garbage before a timed phase, so its
// own collector (off while phases run) does not compete with bagcpd.
func quiesce() { runtime.GC() }

// closed sends ph closed-loop and records the outcome.
func (r *runner) closed(ph *phase) {
	r.g.render(ph.batches)
	quiesce()
	outs, wall := r.cl.closedLoop(ph.batches)
	release(ph.batches)
	ph.runs = append(ph.runs, outs)
	ph.walls = append(ph.walls, wall)
}

// runUntraced drives the real bagcpd processes through every phase.
func (r *runner) runUntraced() (err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func() {
		if r.dep != nil {
			r.cl.close()
			r.dep.stop()
		}
	}()
	if err := r.setup(); err != nil {
		return err
	}
	if r.before, err = scrape(r.cl, r.dep.entry()); err != nil {
		return err
	}
	steal0 := stealSeconds()
	opens := r.byKind("open")
	for s, closed := range r.byKind("closed") {
		cpu0, err := r.dep.cpuSeconds()
		if err != nil {
			return err
		}
		r.closed(closed)
		cpu1, err := r.dep.cpuSeconds()
		if err != nil {
			return err
		}
		r.closedCPU = append(r.closedCPU, cpu1-cpu0)

		open := opens[s]
		r.g.render(open.batches)
		quiesce()
		outs, wall := r.cl.openLoop(open.batches, r.p.openBatchPerS)
		release(open.batches)
		open.runs = append(open.runs, outs)
		open.walls = append(open.walls, wall)
	}
	r.stealS = stealSeconds() - steal0
	if r.after, err = scrape(r.cl, r.dep.entry()); err != nil {
		return err
	}
	if r.rssMB, err = r.dep.peakRSSMB(); err != nil {
		return err
	}
	if err := r.recover(); err != nil {
		return err
	}
	r.closed(r.byKind("continue")[0])
	for _, m := range r.dep.members {
		page, err := r.cl.get(m.addr + "/v1/streams")
		if err != nil {
			return err
		}
		r.streamPages = append(r.streamPages, page)
	}
	return nil
}

// setup times fresh deployments from exec until every stream's window
// is full; the last one stays up for the timed phases.
func (r *runner) setup() error {
	ph := r.phases[0]
	r.g.render(ph.batches)
	for i := 0; i < r.p.setupRuns; i++ {
		quiesce()
		dep := newDeployment(r.w, r.bin, r.dseed, filepath.Join(r.work, fmt.Sprintf("deploy-%d", i)))
		if err := dep.start(); err != nil {
			return err
		}
		r.dep, r.cl = dep, newClient(dep.entry())
		outs, wall := r.cl.closedLoop(ph.batches)
		r.setupS = append(r.setupS, time.Since(dep.startedAt()).Seconds())
		ph.runs = append(ph.runs, outs)
		ph.walls = append(ph.walls, wall)
		if i < r.p.setupRuns-1 {
			r.cl.close()
			dep.stop()
		}
	}
	release(ph.batches)
	return nil
}

// recover times kill/restart cycles. With an oplog the member is first
// drained (SIGTERM writes a checkpoint) and restarted, so each SIGKILL
// replays only the recoverBatches pushed since the last recovery
// checkpoint. Without one, each cycle snapshots the members, kills them
// and restores the snapshot into the restarted processes.
//
// A bounded pool is lifted before the kills: at this revision bagcpd
// deletes a stream's spill file when it faults the stream in, and the
// last checkpoint does not hold the stream either, so a SIGKILL after
// any fault-in leaves a hole the restart refuses to replay past. The
// member therefore restarts unbounded, one bag per stream faults every
// spilled stream back in, and a second drain checkpoints all of them.
func (r *runner) recover() error {
	all := r.dep.all()
	if r.w.poolMax > 0 {
		r.dep.poolMax = 0
		if err := r.drain(); err != nil {
			return err
		}
		r.closed(r.byKind("resident")[0])
	}
	if r.w.oplog {
		if err := r.drain(); err != nil {
			return err
		}
	}
	for c, ph := range r.byKind("recover") {
		r.closed(ph)
		envs := make([][]byte, len(r.dep.members))
		if !r.w.oplog {
			for i, m := range r.dep.members {
				env, err := r.cl.get(m.addr + "/v1/snapshot")
				if err != nil {
					return err
				}
				envs[i] = env
			}
		}
		for _, m := range r.dep.members {
			m.kill()
		}
		if err := r.dep.startMembers(all); err != nil {
			return fmt.Errorf("recovery cycle %d: %w", c, err)
		}
		if !r.w.oplog {
			errs := make([]error, len(envs))
			var wg sync.WaitGroup
			for i, m := range r.dep.members {
				wg.Add(1)
				go func(i int, addr string) {
					defer wg.Done()
					errs[i] = r.cl.post(addr+"/v1/restore", envs[i])
				}(i, m.addr)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return fmt.Errorf("recovery cycle %d: %w", c, err)
				}
			}
		}
		end := time.Now()
		first := r.dep.members[0].started
		for _, m := range r.dep.members {
			if m.started.Before(first) {
				first = m.started
			}
			if rec := m.recoveredRecord(); rec != nil {
				n, _ := rec["records"].(float64)
				d, _ := rec["duration"].(float64)
				if d > 0 {
					r.replayRate = append(r.replayRate, n/d)
				}
			}
		}
		r.recoverS = append(r.recoverS, end.Sub(first).Seconds())
	}
	return nil
}

// drain SIGTERMs every member (each writes a final checkpoint) and
// restarts them with the deployment's current flags.
func (r *runner) drain() error {
	for _, m := range r.dep.members {
		if err := m.term(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := r.dep.startMembers(r.dep.all()); err != nil {
		return err
	}
	r.drainRestartS = time.Since(start).Seconds()
	return nil
}

// workDir creates the run's scratch directory under the build dir.
func workDir(root, workload string, seed uint64) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("work-%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
