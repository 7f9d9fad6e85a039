package experiments

import (
	"fmt"

	"vccmin/internal/par"
	"vccmin/internal/sim"
)

// RunIPC executes one simulation and returns its IPC, wrapping any error
// with the run's identifying coordinates. This is the single-run helper
// shared by the figure drivers here.
func RunIPC(opts sim.Options) (float64, error) {
	r, err := sim.Run(opts)
	if err != nil {
		return 0, fmt.Errorf("%s %s/%s: %w", opts.Benchmark, opts.Scheme, opts.Victim, err)
	}
	return r.IPC, nil
}

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

// run executes the jobs on up to workers goroutines, each writing only
// its own slot, and returns the lowest failing job's error.
func (js ipcJobs) run(workers int) error {
	return par.Do(len(js), workers, nil, func(_ struct{}, i int) error {
		ipc, err := RunIPC(js[i].opts)
		if err != nil {
			return err
		}
		*js[i].dst = ipc
		return nil
	}, nil)
}
