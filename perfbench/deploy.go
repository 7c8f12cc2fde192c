package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// deployment is the set of bagcpd processes one workload runs: one
// -serve member, or two members behind a -route.
type deployment struct {
	w       *workload
	bin     string
	seed    int64
	dir     string // oplog root for this deployment
	poolMax int    // -pool-max of the members (0 = unbounded)
	members []*proc
	router  *proc
	binds   []string // member listen addresses, fixed after first start
}

func (w *workload) memberCount() int {
	if w.routed {
		return 2
	}
	return 1
}

func newDeployment(w *workload, bin string, seed int64, dir string) *deployment {
	d := &deployment{w: w, bin: bin, seed: seed, dir: dir, poolMax: w.poolMax}
	for i := 0; i < w.memberCount(); i++ {
		d.binds = append(d.binds, "127.0.0.1:0")
	}
	return d
}

func (d *deployment) memberArgs(i int) []string {
	args := append([]string{"-serve", d.binds[i]}, d.w.detectorFlags(d.seed)...)
	if d.w.oplog {
		args = append(args, "-oplog", filepath.Join(d.dir, "member"+strconv.Itoa(i)))
	}
	if d.poolMax > 0 {
		args = append(args, "-pool-max", strconv.Itoa(d.poolMax))
	}
	return args
}

// startMembers execs members idx concurrently and waits until each
// announces its address; later restarts reuse the same port.
func (d *deployment) startMembers(idx []int) error {
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for k, i := range idx {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			p, err := startProc(d.bin, d.memberArgs(i))
			if err != nil {
				errs[k] = err
				return
			}
			d.members[i] = p
			d.binds[i] = hostPort(p.addr)
		}(k, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *deployment) all() []int {
	idx := make([]int, d.w.memberCount())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// start brings the whole deployment up from nothing.
func (d *deployment) start() error {
	if d.w.oplog {
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return err
		}
	}
	d.members = make([]*proc, d.w.memberCount())
	if err := d.startMembers(d.all()); err != nil {
		d.stop()
		return err
	}
	if d.w.routed {
		urls := make([]string, len(d.members))
		for i, m := range d.members {
			urls[i] = m.addr
		}
		r, err := startProc(d.bin, []string{"-route", "127.0.0.1:0", "-members", strings.Join(urls, ",")})
		if err != nil {
			d.stop()
			return err
		}
		d.router = r
	}
	return nil
}

// entry is the URL clients push to.
func (d *deployment) entry() string {
	if d.router != nil {
		return d.router.addr
	}
	return d.members[0].addr
}

// procs lists every live process of the deployment.
func (d *deployment) procs() []*proc {
	var ps []*proc
	if d.router != nil {
		ps = append(ps, d.router)
	}
	for _, m := range d.members {
		if m != nil {
			ps = append(ps, m)
		}
	}
	return ps
}

// startedAt is when the first process of the deployment was exec'd.
func (d *deployment) startedAt() time.Time {
	t := d.members[0].started
	for _, p := range d.procs() {
		if p.started.Before(t) {
			t = p.started
		}
	}
	return t
}

// stop SIGKILLs every process and removes the deployment's oplog root.
func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.kill()
	}
	if d.w.oplog {
		os.RemoveAll(d.dir) // best effort: scratch state under the work dir
	}
}

// cpuSeconds sums user+system CPU over every process.
func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// peakRSSMB sums VmHWM over every process.
func (d *deployment) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range d.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func (d *deployment) String() string {
	parts := make([]string, 0, 2)
	for _, p := range d.procs() {
		parts = append(parts, fmt.Sprintf("bagcpd %s", strings.Join(p.args, " ")))
	}
	return strings.Join(parts, "; ")
}
