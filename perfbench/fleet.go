package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"vccmin/internal/population"
	"vccmin/internal/tasks"
)

// A fleet block is one fleet per die-count stratum from 1k to 20k dies,
// in seeded order, each jittered by up to ±2%. Runs measure whole
// blocks, so every run sees the same spread of fleet sizes. The middle
// size appears three times so the median fleet is drawn from many
// samples; the 2k and one of the 4.5k fleets ask for per-die rows.
var (
	fleetStrata   = []int{1000, 2000, 4500, 4500, 4500, 10000, 20000}
	fleetDieRowsS = map[int]bool{1: true, 3: true}
)

type fleetOp struct {
	req  tasks.FleetRequest
	task tasks.FleetTask
}

// fleetBlocks yields block i of the seeded fleet sequence.
func fleetBlocks(seed int64) func(i int) ([]fleetOp, error) {
	rng := rand.New(rand.NewSource(seed))
	var blocks [][]fleetOp
	return func(i int) ([]fleetOp, error) {
		for len(blocks) <= i {
			var b []fleetOp
			for _, s := range rng.Perm(len(fleetStrata)) {
				req := tasks.FleetRequest{
					Dies:        int(float64(fleetStrata[s]) * (0.98 + 0.04*rng.Float64())),
					Schemes:     []string{"block", "word"},
					Seed:        rng.Int63n(1<<40) + 1,
					IncludeDies: fleetDieRowsS[s],
					Workers:     1,
				}
				t, err := tasks.NewFleetTask(req)
				if err != nil {
					return nil, err
				}
				b = append(b, fleetOp{req: req, task: t})
			}
			blocks = append(blocks, b)
		}
		return blocks[i], nil
	}
}

// runFleetOp is the measured operation: the task's compute plus its
// JSON bytes, as the engine would store them.
func runFleetOp(ctx context.Context, op fleetOp) (tasks.FleetResponse, []byte, error) {
	v, err := op.task.Run(ctx)
	if err != nil {
		return tasks.FleetResponse{}, nil, err
	}
	b, err := json.Marshal(v)
	resp, _ := v.(tasks.FleetResponse)
	return resp, b, err
}

// checkFleet holds for any seed: every scheme accounts for every die
// exactly once, and per-die rows come back when asked for.
func checkFleet(op fleetOp, resp tasks.FleetResponse) string {
	if resp.Dies != op.req.Dies || len(resp.Schemes) != len(op.req.Schemes) {
		return fmt.Sprintf("fleet of %d dies answered %d dies, %d schemes", op.req.Dies, resp.Dies, len(resp.Schemes))
	}
	for _, s := range resp.Schemes {
		sum := s.FailedAtNominal
		for _, h := range s.Hist {
			sum += h
		}
		if sum != resp.Dies {
			return fmt.Sprintf("fleet of %d dies: scheme %s counts %d dies", resp.Dies, s.Scheme, sum)
		}
	}
	if op.req.IncludeDies != (len(resp.DieRows) == resp.Dies) {
		return fmt.Sprintf("fleet of %d dies: %d die rows (include_dies %v)", resp.Dies, len(resp.DieRows), op.req.IncludeDies)
	}
	return ""
}

func runFleet(e *env) (*report, error) {
	oneProc()
	// Set-up builds the seeded sequence and runs one warm-up fleet of a
	// fixed size, so set-up time covers a fixed amount of population
	// work.
	type fleetState struct{ next func(int) ([]fleetOp, error) }
	st, cleanup, setupS, err := setupMedian(setupRuns, func(int, func(func())) (*fleetState, func(), error) {
		next := fleetBlocks(e.seed)
		if _, err := next(0); err != nil {
			return nil, nil, err
		}
		req := tasks.FleetRequest{Dies: 10000, Seed: e.seed, Workers: 1}
		t, err := tasks.NewFleetTask(req)
		if err == nil {
			_, _, err = runFleetOp(e.ctx, fleetOp{req: req, task: t})
		}
		return &fleetState{next: next}, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &report{metrics: map[string]float64{"setup_s": setupS}}

	window := e.seconds
	if e.traced {
		window /= 2
	}
	dg := newDigest()
	block := 0
	var (
		allocPerKDie []float64 // traced: RunFleet's allocation per 1000 dies
		dieSchemes   int       // traced: dies × schemes RunFleet certified
	)
	// phase runs whole blocks until the window has passed; traced adds
	// the per-layer calls around each operation. Before each operation
	// it times the reference kernel, and it returns each operation's
	// time both raw and host-normalized by that kernel's time.
	var refs []float64 // untraced: reference kernel times, µs
	phase := func(traced bool) (lat, norm, rates []float64, err error) {
		start := time.Now()
		for first := true; first || time.Since(start) < window; first = false {
			if err := e.ctx.Err(); err != nil {
				return lat, norm, rates, err
			}
			ops, err := st.next(block)
			if err != nil {
				return lat, norm, rates, err
			}
			blockStart, dies := time.Now(), 0
			for i, op := range ops {
				opID := int64(block*len(fleetStrata) + i)
				rep.attempted++
				if traced {
					m0 := memNow()
					tracer.shadow("population.fleet", opID, 0, func() { _, err = population.RunFleet(op.task.Spec) })
					if err == nil {
						kdies := float64(op.req.Dies) / 1000
						allocPerKDie = append(allocPerKDie, float64(memNow().since(m0).alloc)/(1<<20)/kdies)
						dieSchemes += op.req.Dies * len(op.task.Spec.Schemes)
					}
				}
				var (
					resp tasks.FleetResponse
					b    []byte
				)
				ref := hostRef()
				a := tracer.begin("fleet.op", opID, 0)
				t0 := time.Now()
				if traced {
					var v any
					tracer.timed("tasks.run", opID, a.id, func() { v, err = op.task.Run(e.ctx) })
					if err == nil {
						tracer.timed("tasks.marshal", opID, a.id, func() { b, err = json.Marshal(v) })
						resp, _ = v.(tasks.FleetResponse)
					}
				} else {
					resp, b, err = runFleetOp(e.ctx, op)
				}
				d := time.Since(t0)
				tracer.end(a)
				if err == nil {
					if msg := checkFleet(op, resp); msg != "" {
						err = fmt.Errorf("%s", msg)
					}
				}
				if err != nil {
					rep.fail("fleet %d: %v", opID, err)
					continue
				}
				lat = append(lat, ms(d))
				norm = append(norm, hostNormalizedMS(d, ref))
				if !traced {
					refs = append(refs, us(ref))
				}
				dies += op.req.Dies
				if block == 0 {
					dg.add("fleet "+strconv.Itoa(i), b)
				}
			}
			rates = append(rates, float64(dies)/time.Since(blockStart).Seconds())
			block++
		}
		return lat, norm, rates, nil
	}
	m0 := memNow()
	lat, norm, rates, err := phase(false)
	mem := memNow().since(m0)
	if err != nil {
		return rep, err
	}
	rep.digest = dg.sum()
	fmt.Fprintf(os.Stderr, "perfbench: fleet raw latency p50 %.4g ms, reference kernel %.4g µs\n", median(lat), median(refs))
	if !e.traced {
		return rep, endToEndMetrics(rep.metrics, norm)
	}

	m := rep.metrics
	runtimeMetrics(m, mem, len(lat))
	throughput(m, rates)
	m["fleet.latency_raw_p50_ms"] = median(lat)
	m["host.ref_us"] = median(refs)
	_, tracedNorm, _, err := phase(true)
	if err != nil {
		return rep, err
	}
	_, fleetTotal := tracer.stat("population.fleet")
	m["population.fleet_ms"] = tracer.meanUS("population.fleet") / 1000
	if dieSchemes > 0 {
		m["population.us_per_die_scheme"] = us(fleetTotal) / float64(dieSchemes)
	}
	m["population.alloc_mb_per_kdie"] = median(allocPerKDie)
	m["tasks.run_ms.fleet-sweep"] = tracer.meanUS("tasks.run") / 1000
	m["tasks.marshal_us"] = tracer.meanUS("tasks.marshal")
	if p := median(norm); p > 0 {
		m["trace.overhead"] = median(tracedNorm)/p - 1
	}
	return rep, nil
}
