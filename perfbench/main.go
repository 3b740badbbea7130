// Command perfbench is dego's benchmark: three workloads, each printing its
// end-to-end metrics (or, with -trace 1, its per-layer metrics) as one JSON
// line. DESIGN.md explains the workloads, the metrics and the noise
// evidence behind both. Run it through run.sh, which builds it and
// dego-server from the checkout first:
//
//	bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	outDir    string
	genCPU    int // CPU the benchmark process runs on
	serverCPU int // CPU dego-server runs on
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	bin := flag.String("bin", "", "directory holding the dego-server binary")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required")
	}
	o.serverBin = filepath.Join(*bin, "dego-server")
	o.outDir = *bin

	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	o.genCPU, o.serverCPU = cpus[0], cpus[len(cpus)-1]
	if len(cpus) < 2 {
		fmt.Println("# warning: one CPU only; generator and server share it")
	}

	res, err := runWorkload(&o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string { return []string{"kv-wire", "retwis-wire", "retwis-lib"} }

// pin moves the benchmark process onto its CPU with two Ps: the pacing
// thread and the reply readers (wire), or the two worker threads (lib).
func pin(o *options) error {
	runtime.GOMAXPROCS(2)
	return pinProcess(o.genCPU)
}
