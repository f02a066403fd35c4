// Command acebench is the repository's end-to-end benchmark. It drives
// the system the way users meet it — the paper evaluation behind
// `acetables -json` (suite), the configuration search (optimize) and a
// 3-node acelabd ring under closed-loop traffic (service) — checks
// every output against an oracle, and reports the end-to-end metrics
// declared in BENCHMARK.json. A traced run (-trace 1) adds the
// per-layer breakdown: spans around every harness→layer call, plus
// serial probes of each layer's public functions.
//
// Usage:
//
//	acebench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	acebench compare [-spec BENCHMARK.json] A.jsonl B.jsonl
//	acebench ab [-pairs N] [-seed N] [-seconds S] [-workload W] BIN_A BIN_B
//
// Each workload runs in child processes of this binary (so peak RSS and
// the process-wide trace cache belong to one workload); the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. bench/README.md documents every
// workload and metric.
package main

import (
	"fmt"
	"os"
)

func main() {
	args, run := os.Args[1:], runMain
	if len(args) > 0 {
		switch args[0] {
		case "child":
			args, run = args[1:], childMain
		case "compare":
			args, run = args[1:], compareMain
		case "ab":
			args, run = args[1:], abMain
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "acebench:", err)
		os.Exit(1)
	}
}
