package experiments

import (
	"fmt"

	"vccmin/internal/par"
	"vccmin/internal/sim"
)

// ipcJob is one simulation of a figure experiment: its options and the
// result slot its IPC lands in.
type ipcJob struct {
	dst  *float64
	opts sim.Options
}

type ipcJobs []ipcJob

func (js *ipcJobs) add(dst *float64, opts sim.Options) {
	*js = append(*js, ipcJob{dst, opts})
}

// simulate runs the figure jobs benchmark by benchmark. Every job of a
// benchmark simulates the same instruction stream — the one of base,
// which jobsOf(bi, base, jobs) varies only in the machine — so the
// stream is recorded once and replayed to the jobs on up to
// p.Parallelism goroutines, each holding one sim.Replayer and writing
// only its own slots. One recording is live at a time. The error is the
// lowest failing job's, in benchmark order, wrapped with the job's
// benchmark, scheme and victim cache.
func (p SimParams) simulate(mode sim.Mode, jobsOf func(bi int, base sim.Options, jobs *ipcJobs)) error {
	var (
		rec  sim.Recording
		jobs ipcJobs
	)
	for bi, name := range p.Benchmarks {
		base := sim.Options{Benchmark: name, Mode: mode, Instructions: p.Instructions, Seed: p.BaseSeed}
		jobs = jobs[:0]
		jobsOf(bi, base, &jobs)
		if err := rec.Record(base); err != nil {
			return jobError(base, err)
		}
		newReplayer := func() *sim.Replayer { return new(sim.Replayer) }
		err := par.Do(len(jobs), p.Parallelism, newReplayer, func(runs *sim.Replayer, i int) error {
			r, err := runs.Run(jobs[i].opts, &rec)
			if err != nil {
				return jobError(jobs[i].opts, err)
			}
			*jobs[i].dst = r.IPC
			return nil
		}, nil)
		if err != nil {
			return err
		}
	}
	return nil
}

func jobError(opts sim.Options, err error) error {
	return fmt.Errorf("%s %s/%s: %w", opts.Benchmark, opts.Scheme, opts.Victim, err)
}
