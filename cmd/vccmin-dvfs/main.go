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

// options is the parsed command line: the explore request plus the
// flags that are not request fields.
type options struct {
	req          tasks.DVFSExploreRequest
	workers      int
	out          string
	pretty, list bool
	cacheDir     *string
	version      *bool
}

// parseFlags registers the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	cliflag.Bind(fs, &o.req)
	// -policy is an alias for -policies, matching the singular-axis habit
	// of one-policy invocations (vccmin-dvfs -policy oracle).
	fs.Var(fs.Lookup("policies").Value, "policy", "alias for -policies")
	fs.IntVar(&o.workers, "workers", 0, "concurrent runs (0 = GOMAXPROCS); never changes results")
	fs.StringVar(&o.out, "out", "", "output JSON file (empty = stdout)")
	fs.BoolVar(&o.pretty, "pretty", true, "indent the JSON (false emits the server's exact compact bytes)")
	fs.BoolVar(&o.list, "list", false, "list builtin workloads and policies, then exit")
	o.cacheDir = clirun.ResultCacheFlag(fs)
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

// task constructs the same task the server constructs for GET /v1/dvfs:
// the switch-economics knobs flow through hashed task fields, so the
// emitted "hash" really does identify the output bytes. Workers only
// changes scheduling — it lives on the spec, outside the request, and
// outside the canonical hash.
func (o *options) task() (tasks.DVFSExploreTask, error) {
	task, err := tasks.NewDVFSExploreTask(o.req)
	task.Spec.Workers = o.workers
	return task, err
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	if o.list {
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

	task, err := o.task()
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	eng, err := clirun.NewEngine(*o.cacheDir)
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	res, err := clirun.RunTask(eng, "vccmin-dvfs", task)
	if err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	if err := clirun.WriteOutput(o.out, res.Bytes, o.pretty); err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}

	var resp tasks.DVFSResponse
	if err := res.Decode(&resp); err != nil {
		clirun.Fatal("vccmin-dvfs", err)
	}
	fmt.Fprintf(os.Stderr, "dvfs: %d operating points, %d on the frontier\n",
		len(resp.Points), len(resp.Frontier))
}
