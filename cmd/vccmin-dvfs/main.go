// Command vccmin-dvfs is the phase-aware dual-mode scheduling explorer:
// it runs multi-phase workloads across the high-voltage (3 GHz) and
// low-voltage (600 MHz, below Vcc-min, fault-mitigated) domains under a
// set of scheduling policies, and reports every (workload, scheme,
// policy) operating point with its Pareto frontier over (performance,
// energy per instruction).
//
// The command is a thin adapter over the engine task layer: it
// constructs the same dvfs-explore task the server's GET /v1/dvfs and
// POST /v1/batch construct, so the emitted document is byte-identical
// (modulo -pretty whitespace) to the server's for the same parameters —
// and with -result-cache pointed at a directory, repeated invocations
// replay the stored bytes instead of re-simulating.
//
// Usage:
//
//	vccmin-dvfs                                    # default grid, JSON to stdout
//	vccmin-dvfs -policies oracle,reactive          # restrict the policy axis
//	vccmin-dvfs -policy oracle                     # -policy is an alias
//	vccmin-dvfs -workloads bursty-server -schemes block -out frontier.json
//	vccmin-dvfs -result-cache ~/.cache/vccmin      # persistent cross-run result reuse
//	vccmin-dvfs -list                              # show workloads and policies
//	vccmin-dvfs -runs                              # include full per-run phase accounting
//
// Axis flags take comma-separated values. -scale rescales every
// workload's phase budgets proportionally to roughly the given total
// instruction count; -penalty prices a mode switch in cycles.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/dvfs"
	"vccmin/internal/tasks"
	"vccmin/internal/workload"
)

func main() {
	var (
		workloads = flag.String("workloads", "", "multi-phase workloads, comma list (default: all builtins)")
		schemes   = flag.String("schemes", "block,word", "low-voltage schemes, comma list (baseline,word,block,inc-word,bitfix)")
		policies  = flag.String("policies", "", "scheduling policies, comma list (static-high,static-low,oracle,reactive,interval; default: all)")
		victim    = flag.String("victim", "none", "victim cache (none,10t,6t)")
		pfail     = flag.Float64("pfail", 0.001, "per-cell failure probability at the low-voltage point")
		seed      = flag.Int64("seed", 1, "base seed for every run's random streams")
		scale     = flag.Int("scale", 0, "rescale each workload to about this many instructions (0 = reference scale)")
		penalty   = flag.Int("penalty", 0, "mode-switch penalty in cycles (0 = default 2000, -1 = free switches)")
		interval  = flag.Int("interval", 0, "decision-chunk size in instructions (0 = default 2000)")
		threshold = flag.Float64("ipc-threshold", 0, "reactive policy's high-mode IPC threshold (0 = default 0.1)")
		workers   = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS); never changes results")
		out       = flag.String("out", "", "output JSON file (empty = stdout)")
		pretty    = flag.Bool("pretty", true, "indent the JSON (false emits the server's exact compact bytes)")
		runs      = flag.Bool("runs", false, "include the full per-run phase accounting in the output")
		list      = flag.Bool("list", false, "list builtin workloads and policies, then exit")
		cacheDir  = clirun.ResultCacheFlag()
		version   = clirun.VersionFlag()
	)
	// -policy is an alias for -policies, matching the singular-axis habit
	// of one-policy invocations (vccmin-dvfs -policy oracle).
	flag.StringVar(policies, "policy", "", "alias for -policies")
	flag.Parse()
	if clirun.HandleVersion(version) {
		return
	}

	if *list {
		fmt.Println("multi-phase workloads:")
		for _, m := range workload.MultiPhaseProfiles() {
			var parts []string
			for _, ph := range m.Phases {
				parts = append(parts, fmt.Sprintf("%s:%d", ph.Benchmark, ph.Instructions))
			}
			fmt.Printf("  %-22s %s\n", m.Name, strings.Join(parts, " "))
		}
		fmt.Println("policies:")
		for _, p := range dvfs.Policies() {
			fmt.Printf("  %s\n", p)
		}
		return
	}

	// Construct the same task the server constructs for GET /v1/dvfs:
	// the switch-economics knobs flow through hashed task fields, so the
	// emitted "hash" really does identify the output bytes.
	req := tasks.DVFSExploreRequest{
		Workloads:     cliflag.Split(*workloads),
		Schemes:       cliflag.Split(*schemes),
		Policies:      cliflag.Split(*policies),
		Victim:        *victim,
		Pfail:         pfail,
		Seed:          *seed,
		Scale:         *scale,
		SwitchPenalty: *penalty,
		Interval:      *interval,
		IPCThreshold:  *threshold,
		IncludeRuns:   *runs,
	}
	task, err := tasks.NewDVFSExploreTask(req)
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	// Workers only changes scheduling — it lives on the spec, outside
	// the request, and outside the canonical hash.
	task.Spec.Workers = *workers
	eng, err := clirun.NewEngine(*cacheDir)
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	res, err := clirun.RunTask(eng, "vccmin-dvfs", task)
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	if err := clirun.WriteOutput(*out, res.Bytes, *pretty); err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}

	var resp tasks.DVFSResponse
	if err := res.Decode(&resp); err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	fmt.Fprintf(os.Stderr, "dvfs: %d operating points, %d on the frontier\n",
		len(resp.Points), len(resp.Frontier))
}
