// Command vccmin-sweep runs the sharded parameter-sweep engine over the
// paper's design space: a cartesian grid of pfail × cache geometry ×
// scheme × victim-cache kind × disabling granularity, each cell evaluated
// analytically (Section IV), by Monte Carlo simulation, and against the
// Fig. 1 energy model.
//
// Cells are deterministic: each derives its seed stream from the hash of
// its coordinates plus -seed, so any cell reproduces identically whether
// run alone, unsharded, or by any shard layout. Results stream to -out as
// JSON lines in cell order; -resume skips cells already present there.
//
// Usage:
//
//	vccmin-sweep -pfail 1e-4:1e-3:5 -schemes block,word -out cells.jsonl
//	vccmin-sweep -pfail 1e-4:1e-3:5 -schemes block,word -shards 4 -shard 2 -out cells.jsonl
//	vccmin-sweep -resume -out cells.jsonl            # finish an interrupted run
//	vccmin-sweep -summarize cells.jsonl              # aggregate an existing file
//	vccmin-sweep -result-cache ~/.cache/vccmin ...   # engine path: repeats replay from the store
//
// Axis flags take comma-separated values; -pfail also accepts lo:hi:n for
// n log-spaced points.
//
// With -result-cache the run goes through the engine task layer (the
// same sweep task the server's POST /v1/batch executes): the whole
// result is content-addressed under the spec's canonical hash, so a
// repeated invocation — or one that another entrypoint already computed
// over the same store — writes identical rows without re-simulating.
// The streaming default path keeps its incremental checkpoint semantics
// for runs too large to hold in memory; both paths emit byte-identical
// rows.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/sweep"
	"vccmin/internal/tasks"
)

// options is the parsed command line: the sweep request plus the flags
// that are not request fields.
type options struct {
	req             tasks.SweepRequest
	out, summarize  string
	resume, summary bool
	cacheDir        *string
	version         *bool
}

// parseFlags registers the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	cliflag.Bind(fs, &o.req)
	fs.StringVar(&o.out, "out", "", "output JSONL file (empty = stdout, no resume)")
	fs.BoolVar(&o.resume, "resume", false, "skip cells already present in -out")
	fs.BoolVar(&o.summary, "summary", true, "print per-axis summaries after the run")
	fs.StringVar(&o.summarize, "summarize", "", "only aggregate an existing JSONL file and exit")
	o.cacheDir = clirun.ResultCacheFlag(fs)
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	if o.summarize != "" {
		if err := summarizeFile(o.summarize); err != nil {
			clirun.Fatal("vccmin-sweep", err)
		}
		return
	}

	task, err := tasks.NewSweepRunTask(o.req)
	if err != nil {
		clirun.Fatal("vccmin-sweep", err)
	}
	spec := task.Spec
	var res *sweep.Result
	switch {
	case o.resume && o.out == "":
		clirun.Fatal("vccmin-sweep", fmt.Errorf("-resume needs -out"))
	case *o.cacheDir != "" && o.resume:
		clirun.Fatal("vccmin-sweep", fmt.Errorf("-result-cache and -resume are exclusive: the engine store already skips completed work"))
	case *o.cacheDir != "":
		if err := runViaEngine(task, *o.cacheDir, o.out, o.summary); err != nil {
			clirun.Fatal("vccmin-sweep", err)
		}
		return
	case o.resume:
		// ResumeFile loads the checkpoint, truncates any torn final line
		// and appends the missing cells on the valid prefix's boundary.
		res, err = sweep.ResumeFile(spec, o.out, sweep.RunOptions{})
		if err != nil {
			clirun.Fatal("vccmin-sweep", err)
		}
		if res.ResumeTornBytes > 0 {
			fmt.Fprintf(os.Stderr, "sweep: dropped %d bytes of torn final line from %s (valid prefix %d bytes)\n",
				res.ResumeTornBytes, o.out, res.ResumeValidBytes)
		}
	default:
		opt := sweep.RunOptions{Out: os.Stdout}
		if o.out != "" {
			f, err := os.OpenFile(o.out, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				clirun.Fatal("vccmin-sweep", err)
			}
			defer f.Close()
			opt.Out = f
		}
		res, err = sweep.Run(spec, opt)
		if err != nil {
			clirun.Fatal("vccmin-sweep", err)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: grid %d cells, shard %d/%d owns %d: computed %d, skipped %d (resume)\n",
		res.TotalCells, spec.ShardIndex, spec.ShardCount, res.ShardCells, res.Computed, res.Skipped)
	if o.summary && len(res.Summary) > 0 {
		printSummary(res.Summary)
	}
}

// runViaEngine executes the sweep as the same engine task the server's
// batch endpoint runs: the whole result is content-addressed by the
// spec's canonical hash in the store under cacheDir, so a repeated
// invocation replays stored bytes instead of re-simulating. Rows are
// emitted as the same JSONL stream the direct path writes.
func runViaEngine(task tasks.SweepRunTask, cacheDir, out string, summary bool) error {
	eng, err := clirun.NewEngine(cacheDir)
	if err != nil {
		return err
	}
	res, err := clirun.RunTask(eng, "vccmin-sweep", task)
	if err != nil {
		return err
	}
	var resp tasks.SweepRunResponse
	if err := res.Decode(&resp); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range resp.Rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	if out == "" {
		_, err = os.Stdout.Write(buf.Bytes())
	} else {
		err = os.WriteFile(out, buf.Bytes(), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: grid %d cells, shard %d/%d owns %d: computed %d (hash %s, source %s)\n",
		resp.TotalCells, task.Spec.ShardIndex, task.Spec.ShardCount, resp.ShardCells, resp.Computed, resp.Hash, res.Source)
	if summary && len(resp.Summary) > 0 {
		printSummary(resp.Summary)
	}
	return nil
}

func summarizeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := sweep.ReadRows(f)
	if err != nil {
		return err
	}
	fmt.Printf("%d cells in %s\n", len(rows), path)
	printSummary(sweep.Summarize(rows))
	return nil
}

func printSummary(groups []sweep.AxisSummary) {
	fmt.Fprintf(os.Stderr, "%-12s %-24s %6s %10s %10s %10s\n",
		"axis", "value", "cells", "E[cap]", "IPC loss", "E/instr")
	for _, g := range groups {
		fmt.Fprintf(os.Stderr, "%-12s %-24s %6d %9.1f%% %9.1f%% %10.3f\n",
			g.Axis, g.Value, g.Cells,
			100*g.MeanExpectedCapacity, 100*g.MeanIPCDegradation, g.MeanEnergyPerInstruction)
	}
}
