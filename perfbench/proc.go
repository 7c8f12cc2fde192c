package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running bagcpd process.
type proc struct {
	cmd     *exec.Cmd
	args    []string
	addr    string    // http://host:port, from the serving/routing record
	started time.Time // just before exec
	done    chan struct{}

	mu        sync.Mutex
	tail      []string       // last stderr lines, for error reports
	recovered map[string]any // the "oplog recovered" record, if logged
}

// serverNice is the scheduling niceness of every bagcpd process.
const serverNice = 5

// startTimeout bounds how long a process may take to announce itself.
const startTimeout = 60 * time.Second

// startProc execs bin with args (plus JSON logging) and waits until the
// process announces its listen address.
func startProc(bin string, args []string) (*proc, error) {
	args = append(append([]string(nil), args...), "-log-format", "json")
	p := &proc{cmd: exec.Command(bin, args...), args: args, done: make(chan struct{})}
	// A harness that dies must not leave servers behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	// The load generator stands in for clients on other machines: bagcpd
	// runs at a lower priority so it cannot make the generator late.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, p.cmd.Process.Pid, serverNice); err != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		return nil, fmt.Errorf("renice bagcpd: %w", err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil {
				switch rec["msg"] {
				case "serving", "routing":
					if a, ok := rec["addr"].(string); ok {
						select {
						case addrc <- a:
						default:
						}
					}
				case "oplog recovered":
					p.mu.Lock()
					p.recovered = rec
					p.mu.Unlock()
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	select {
	case a := <-addrc:
		p.addr = a
		return p, nil
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("bagcpd %s exited before serving:\n%s", strings.Join(args, " "), p.stderrTail())
	case <-time.After(startTimeout):
		p.kill()
		return nil, fmt.Errorf("bagcpd %s did not announce an address within %v", strings.Join(args, " "), startTimeout)
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) recoveredRecord() map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recovered
}

// kill SIGKILLs the process and waits for it.
func (p *proc) kill() {
	if p == nil || p.cmd.ProcessState != nil {
		return
	}
	_ = p.cmd.Process.Kill() // already-exited is the only failure
	<-p.done
	_ = p.cmd.Wait() // "signal: killed" is the expected outcome
}

// term SIGTERMs the process (graceful drain) and waits for a clean exit.
func (p *proc) term() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("bagcpd did not drain within 30s")
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("bagcpd drain: %v\n%s", err, p.stderrTail())
	}
	return nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds returns the process's user+system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(blob)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns the process's VmHWM in MB.
func (p *proc) peakRSSMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostPort strips the scheme from an announced address.
func hostPort(addr string) string { return strings.TrimPrefix(addr, "http://") }

// stealSeconds returns the machine's cumulative CPU time stolen by the
// hypervisor, from the first line of /proc/stat.
func stealSeconds() float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[8], 64) // diagnostics only
	return v / clockTicks
}
