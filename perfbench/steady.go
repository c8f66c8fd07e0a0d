package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// steadiness runs every listed workload n times, alternating workloads,
// each run a fresh child process with its own seed, and prints per metric
// the median, the quartiles, the interquartile range and (max−min) as
// shares of the median. These are the figures the bounds in
// BENCHMARK.json are set from.
func steadiness(o options, n int, workloads []string, stdout, stderr io.Writer) int {
	values := map[string]map[string][]float64{} // workload → metric → runs
	units := map[string]string{}
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			seed := o.seed + int64(i)
			args := []string{
				"-dmfbd", o.dmfbd, "-workdir", o.workdir, "-workload", wl,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds),
				"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			}
			var out bytes.Buffer
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stdout = &out
			cmd.Stderr = stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n%s", wl, seed, err, out.String())
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: bad result line: %v\n", wl, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: incorrect run\n%s", wl, seed, out.String())
				return 1
			}
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[wl][k] = append(values[wl][k], m.Value)
				units[k] = m.Unit
			}
			steal := ""
			for _, l := range lines {
				if strings.HasPrefix(l, "perfbench: host steal share ") {
					steal = strings.Fields(l)[4]
				}
			}
			fmt.Fprintf(stdout, "perfbench: run %d/%d %s seed %d steal %s: %s\n", i+1, n, wl, seed, steal, lines[len(lines)-1])
		}
	}
	for _, wl := range workloads {
		fmt.Fprintf(stdout, "perfbench: steadiness of %s over %d runs\n", wl, n)
		fmt.Fprintf(stdout, "  %-32s %12s %12s %12s %9s %9s %s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "unit")
		names := make([]string, 0, len(values[wl]))
		for k := range values[wl] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			xs := values[wl][k]
			q := quartiles(xs)
			lo, hi := minMax(xs)
			fmt.Fprintf(stdout, "  %-32s %12.6g %12.6g %12.6g %9.4f %9.4f %s\n",
				k, q[0], q[1], q[2], share(q[2]-q[0], q[1]), share(hi-lo, q[1]), units[k])
		}
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}

func share(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return a / base
}
