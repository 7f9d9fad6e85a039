package experiments

import (
	"fmt"
	"sync"

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

// RunJobs executes the closures with bounded parallelism; each closure
// writes to its own result slot, so no synchronization beyond the wait is
// needed. The first error (if any) is returned.
func RunJobs(workers int, jobs []func() error) error {
	if workers <= 0 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	errCh := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, run := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(run func() error) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := run(); err != nil {
				errCh <- err
			}
		}(run)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
