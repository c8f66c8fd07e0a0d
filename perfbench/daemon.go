package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dmfbd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done

	logMu sync.Mutex
	log   bytes.Buffer // the process's stderr
}

// startDaemon launches dmfbd with args and waits for its "serving on" line.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The kernel kills the server if the benchmark dies first, so no
	// server outlives an interrupted run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dmfbd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if a, ok := strings.CutPrefix(line, "dmfbd: serving on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("dmfbd exited before serving: %v\n%s", d.err, d.stderr())
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("dmfbd did not start serving within 15s\n%s", d.stderr())
	}
}

func (d *daemon) stderr() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and waits for the drain; a process that has not exited
// within 20s is killed. stop always waits until the process has ended.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is waited for below
	select {
	case <-d.done:
		return d.err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("dmfbd did not drain within 20s; killed")
	}
}

// get GETs path and returns the body of a 200 answer.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times; Linux
// fixes it at 100 for user space on every architecture Go supports.
const userHZ = 100

// cpuSeconds returns the process's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return (ut + st) / userHZ, nil
}

// peakRSSMB returns the process's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// hist is one /metrics histogram line.
type hist struct{ count, sum float64 }

// metrics is a parsed /metrics scrape: counters and gauges by name, and
// histograms by name.
type metrics struct {
	values map[string]float64
	hists  map[string]hist
}

// scrape reads the server's /metrics (the obs "name value" and
// "name count= mean= min= max=" format).
func (d *daemon) scrape() (metrics, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return metrics{}, err
	}
	return parseMetrics(string(body))
}

func parseMetrics(text string) (metrics, error) {
	m := metrics{values: map[string]float64{}, hists: map[string]hist{}}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 2:
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return m, fmt.Errorf("metrics line %q: %w", line, err)
			}
			m.values[f[0]] = v
		case len(f) == 5 && strings.HasPrefix(f[1], "count="):
			count, err1 := strconv.ParseFloat(strings.TrimPrefix(f[1], "count="), 64)
			mean, err2 := strconv.ParseFloat(strings.TrimPrefix(f[2], "mean="), 64)
			if err1 != nil || err2 != nil {
				return m, fmt.Errorf("metrics line %q", line)
			}
			m.hists[f[0]] = hist{count: count, sum: count * mean}
		}
	}
	return m, nil
}

// delta returns after − before.
func delta(before, after metrics) metrics {
	d := metrics{values: map[string]float64{}, hists: map[string]hist{}}
	for k, v := range after.values {
		d.values[k] = v - before.values[k]
	}
	for k, h := range after.hists {
		b := before.hists[k]
		d.hists[k] = hist{count: h.count - b.count, sum: h.sum - b.sum}
	}
	return d
}

func (m metrics) mean(name string) float64 {
	h := m.hists[name]
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
