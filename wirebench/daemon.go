package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running thematicd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
	ready   chan struct{}
	exited  chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon execs thematicd and returns once it prints its listening
// line, or with an error when it exits or stays silent.
func startDaemon(bin string, args []string, addr, metrics string) (*daemon, error) {
	d := &daemon{addr: addr, metrics: metrics, ready: make(chan struct{}), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	// A daemon must not outlive the generator, even when the generator
	// is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start thematicd: %w", err)
	}
	go d.watch(stderr)
	select {
	case <-d.ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("thematicd %s exited during start-up: %s", addr, d.lastLines())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("thematicd %s did not start listening: %s", addr, d.lastLines())
	}
}

func (d *daemon) watch(stderr io.Reader) {
	sc := bufio.NewScanner(stderr)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 100 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if !signalled && strings.HasPrefix(line, "thematicd listening on") {
			signalled = true
			close(d.ready)
		}
	}
	// Wait only after stderr is drained (os/exec's rule for StderrPipe).
	d.cmd.Wait()
	close(d.exited)
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// died reports whether the daemon exited before it was told to stop.
func (d *daemon) died() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// stop terminates the daemon and waits for it to exit: SIGTERM first,
// SIGKILL if the graceful drain takes too long.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads one unlabelled series from the daemon's /metrics.
func (d *daemon) scrape(name string) (float64, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("series %s not exported", name)
}

// freePorts picks n loopback ports nothing listens on. Ports start at a
// fixed base so the federation's ring, which hashes node addresses, is
// the same on every run.
func freePorts(n int) ([]int, error) {
	var out []int
	for p := 27170; p < 28170 && len(out) < n; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			out = out[:0] // keep the block contiguous
			continue
		}
		ln.Close()
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("no %d free loopback ports", n)
	}
	return out, nil
}

// cpuTicks is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTicks struct{ total, steal int64 }

func hostCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user..steal; guest time is already inside user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealShare is the share of host CPU time stolen since start.
func (t cpuTicks) stealShare(start cpuTicks) float64 {
	if t.total <= start.total {
		return 0
	}
	return float64(t.steal-start.steal) / float64(t.total-start.total)
}
