package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSelfcheck runs 2n invocations of this binary over all six
// workloads, alternately assigned to sets A and B — the same code on
// both sides — and prints, for every end-to-end metric of every
// workload, both medians, their distance and the pooled quartile spread
// against the metric's bound. A distance beyond the bound means the
// benchmark cannot tell a regression of that size from its own noise;
// that is an error.
func runSelfcheck(n int, seed uint64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		cmd := exec.Command(exe, "--workload", "all",
			"--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("invocation %d: %w", i+1, err)
		}
		res, err := lastLine(out)
		if err != nil {
			return fmt.Errorf("invocation %d: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("invocation %d reported incorrect results", i+1)
		}
		for name, v := range res.Metrics {
			sets[i%2][name] = append(sets[i%2][name], v.Value)
		}
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck invocation %d of %d done\n", i+1, 2*n)
	}

	fmt.Printf("| workload | metric | median A | median B | |Δ|/median | IQR/median | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	worst := 0
	for _, w := range workloads {
		for _, em := range endToEndMetrics {
			key := w.name + "/" + em.name
			a, b := median(sets[0][key]), median(sets[1][key])
			pooled := append(append([]float64(nil), sets[0][key]...), sets[1][key]...)
			delta := math.Abs(a-b) / median(pooled)
			verdict := "ok"
			if delta > em.bound {
				verdict = "BEYOND BOUND"
				worst++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.4f | %.4f | %.2f | %s |\n",
				w.name, em.name, a, b, delta, relativeIQR(pooled), em.bound, verdict)
		}
	}
	if worst > 0 {
		return fmt.Errorf("%d metric × workload pairs moved beyond their bound between two sets of the same code", worst)
	}
	return nil
}

// lastLine decodes the contract's result object from the last line of
// an invocation's standard output.
func lastLine(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}
