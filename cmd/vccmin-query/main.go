// Command vccmin-query aggregates a sweep's result set through the
// colstore query layer: filter rows (-where, -pfail-min/-pfail-max),
// group them by axes (-group-by) and report count/mean/min/max and
// p50/p90/p99 per metric (-metrics) — without materializing the rows.
//
// The grid flags name the same design space vccmin-sweep takes, and the
// command constructs the exact query task the server's POST /v1/query
// runs, so the emitted document is byte-identical (modulo -pretty
// whitespace) to the server's for the same question. With -rows the
// answer comes from an existing sweep checkpoint (a vccmin-sweep -out
// file) after verifying it holds exactly the grid's result set; without
// it the sweep is computed inline. Both paths answer identically: the
// aggregation is row-order independent, so a resumed checkpoint (whose
// rows are not in cell order) and a fresh run agree byte for byte.
//
// Usage:
//
//	vccmin-query -pfail 1e-4:1e-3:5 -schemes block,word -group-by scheme
//	vccmin-query -rows cells.jsonl -group-by pfail,scheme -metrics mean_ipc
//	vccmin-query -where scheme=block -pfail-max 5e-4 -group-by pfail
//	vccmin-query -result-cache ~/.cache/vccmin ...   # repeats replay from the store
//
// Axis flags take comma-separated values; -pfail also accepts lo:hi:n
// for n log-spaced points. -where takes axis=value pairs, comma
// separated.
package main

import (
	"flag"
	"fmt"
	"os"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/sweep"
	"vccmin/internal/tasks"
)

// options is the parsed command line: the query request (its sweep
// grid's fields flattened into top-level flags) plus the flags that are
// not request fields.
type options struct {
	req       tasks.QueryRequest
	rows, out string
	pretty    bool
	cacheDir  *string
	version   *bool
}

// parseFlags registers the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	cliflag.Bind(fs, &o.req)
	fs.StringVar(&o.rows, "rows", "", "answer from this sweep checkpoint (JSONL) instead of computing")
	fs.StringVar(&o.out, "out", "", "output JSON file (empty = stdout)")
	fs.BoolVar(&o.pretty, "pretty", true, "indent the JSON (false emits the server's exact compact bytes)")
	o.cacheDir = clirun.ResultCacheFlag(fs)
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	task, err := tasks.NewQueryTask(o.req)
	if err != nil {
		clirun.Fatal("vccmin-query", err)
	}
	if o.rows != "" {
		f, err := os.Open(o.rows)
		if err != nil {
			clirun.Fatal("vccmin-query", err)
		}
		rows, err := sweep.ReadRows(f)
		f.Close()
		if err != nil {
			clirun.Fatal("vccmin-query", err)
		}
		if task, err = task.WithRows(rows); err != nil {
			clirun.Fatal("vccmin-query", err)
		}
	}

	eng, err := clirun.NewEngine(*o.cacheDir)
	if err != nil {
		clirun.Fatal("vccmin-query", err)
	}
	res, err := clirun.RunTask(eng, "vccmin-query", task)
	if err != nil {
		clirun.Fatal("vccmin-query", err)
	}
	if err := clirun.WriteOutput(o.out, res.Bytes, o.pretty); err != nil {
		clirun.Fatal("vccmin-query", err)
	}
	var resp tasks.QueryResponse
	if err := res.Decode(&resp); err != nil {
		clirun.Fatal("vccmin-query", err)
	}
	fmt.Fprintf(os.Stderr, "query: %d rows, %d matched, %d groups (sweep %s, query %s)\n",
		resp.Rows, resp.Matched, len(resp.Groups), resp.SweepHash, resp.Hash)
}
