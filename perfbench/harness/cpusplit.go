package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules maps each hetmpc/internal package to the layer its CPU time is
// charged to: sched and fault run through the engine, and the sketch layer
// includes its field arithmetic and arenas.
var cpuModules = map[string]string{
	"mpc": "mpc", "sched": "mpc", "fault": "mpc", "wire": "mpc", "trace": "mpc", "metrics": "mpc",
	"prims":  "prims",
	"sketch": "sketch", "xrand": "sketch", "arena": "sketch",
	"core": "core", "labeling": "core",
	"sublinear": "sublinear",
	"graph":     "graph", "unionfind": "graph",
}

// cpuSplit reads CPU profiles through `go tool pprof -traces` and returns,
// as fractions of all sampled CPU time, the share charged to each layer (by
// the innermost hetmpc/internal frame of the sample's stack), the share with
// runtime.mallocgc on the stack and the share spent in background GC
// marking.
func cpuSplit(profiles []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-unit=ms"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	out := map[string]float64{"cpu.alloc_frac": 0, "cpu.gc_frac": 0}
	for _, m := range cpuModules {
		out["cpu."+m+"_frac"] = 0
	}
	var total float64
	// Each stack is a block after a dashed rule: its first line is the
	// sample value and the leaf frame, the lines after it the callers.
	for _, block := range strings.Split(string(text), "-----------+")[1:] {
		sc := bufio.NewScanner(strings.NewReader(block))
		sc.Buffer(nil, 1<<20)
		sc.Scan() // the rest of the rule
		var v float64
		layer, alloc, gc := "", false, false
		for first := true; sc.Scan(); first = false {
			line := strings.TrimSpace(sc.Text())
			if first {
				ms, frame, ok := strings.Cut(line, "ms")
				if v, err = strconv.ParseFloat(ms, 64); !ok || err != nil {
					return nil, fmt.Errorf("go tool pprof: unexpected sample line %q", line)
				}
				line = strings.TrimSpace(frame)
			}
			name, _, _ := strings.Cut(line, " ")
			switch name {
			case "runtime.mallocgc":
				alloc = true
			case "runtime.gcBgMarkWorker":
				gc = true
			}
			if layer == "" {
				if rest, ok := strings.CutPrefix(name, "hetmpc/internal/"); ok {
					pkg, _, _ := strings.Cut(rest, ".")
					layer = cpuModules[pkg]
				}
			}
		}
		total += v
		if layer != "" {
			out["cpu."+layer+"_frac"] += v
		}
		if alloc {
			out["cpu.alloc_frac"] += v
		}
		if gc {
			out["cpu.gc_frac"] += v
		}
	}
	if total == 0 {
		return nil, errors.New("the CPU profiles have no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}
