// Command perfbench is Loki's steady end-to-end benchmark. It stands up
// the high-availability cluster in one process — a manifest-routed
// frontend, two nodes each owning half of eight global shards on ingest
// stores, durable budget shards in enforce mode, checkpoints on, and
// one replica following each node, wired as loki-server wires those
// roles — drives it with an open-loop Poisson generator, checks every
// output, and prints one JSON result line.
//
// Each run has four measured phases after set-up:
//
//  1. a fixed-rate phase at the workload's offered rate (latency, CPU,
//     bytes on disk);
//  2. restart cycles of node 0 (recovery and replica resync);
//  3. a search for the highest sustainable rate of the workload's mix;
//  4. the output checks.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the layers are wrapped from the benchmark's own files
// and the per-layer metrics are printed instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload to run: ingest or dashboard")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and arrival schedule")
	seconds := flag.Int("seconds", 20, "measured seconds per run, split across the phases")
	trace := flag.Int("trace", 0, "1 wraps every layer and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1)
	if res != nil {
		line, merr := json.Marshal(res)
		if merr != nil {
			err = errors.Join(err, merr)
		} else {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
