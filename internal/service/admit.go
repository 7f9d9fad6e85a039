package service

import (
	"fmt"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// The service's size limits. They bound what one request may make the
// server compute or hold; they are not validation, so the task
// constructors (and the CLIs built on them) accept larger work.
const (
	// maxDVFSCells bounds a DVFS (workload × scheme × policy) grid;
	// each cell is a full scheduled run.
	maxDVFSCells = 64
	// maxDVFSScale bounds the per-workload instruction budget.
	maxDVFSScale = 500_000
	// maxFleetDies bounds the fleet a sweep or prediction study may
	// simulate; each die is a multi-voltage certification.
	maxFleetDies = 200_000
	// maxFleetDieRows bounds the fleets that may ask for per-die rows;
	// distributions stay cheap at any size, row dumps do not.
	maxFleetDieRows = 10_000
	// maxFleetVSteps bounds the voltage grid, which every die and the
	// response carry in full (the default is 33).
	maxFleetVSteps = 1024
	// maxPredictSample bounds the dies a prediction study may measure.
	maxPredictSample = 2_000
)

// admit applies the service's size limits to a constructed task. Every
// entry point calls it once per task — the sync GET and POST handlers,
// each POST /v1/batch item, POST /v1/query and POST /v1/sweeps — before
// any tier or shed decision, so one input gets one answer everywhere.
func (s *Server) admit(t engine.Task) error {
	switch t := t.(type) {
	case tasks.DVFSExploreTask:
		if n := t.GridCells(); n > maxDVFSCells {
			return fmt.Errorf("grid has %d cells, limit %d", n, maxDVFSCells)
		}
		return admitScale(t.Spec.Scale)
	case tasks.DVFSRunTask:
		return admitScale(t.Req.Scale)
	case tasks.FleetTask:
		switch dies := t.DieCount(); {
		case dies > maxFleetDies:
			return fmt.Errorf("fleet has %d dies, limit %d", dies, maxFleetDies)
		case t.Req.IncludeDies && dies > maxFleetDieRows:
			return fmt.Errorf("include_dies limited to %d dies, fleet has %d", maxFleetDieRows, dies)
		case t.Spec.VSteps > maxFleetVSteps:
			return fmt.Errorf("vsteps %d exceeds limit %d", t.Spec.VSteps, maxFleetVSteps)
		}
	case tasks.PredictTask:
		if dies := t.Spec.Fleet.Dies; dies > maxFleetDies {
			return fmt.Errorf("fleet has %d dies, limit %d", dies, maxFleetDies)
		}
		if n := t.SampleCount(); n > maxPredictSample {
			return fmt.Errorf("sample %d exceeds limit %d", n, maxPredictSample)
		}
	case interface{ GridCells() int }:
		if n := t.GridCells(); n > s.cfg.MaxGridCells {
			return fmt.Errorf("grid has %d cells, limit %d", n, s.cfg.MaxGridCells)
		}
	}
	return nil
}

func admitScale(scale int) error {
	if scale > maxDVFSScale {
		return fmt.Errorf("scale %d out of [0,%d]", scale, maxDVFSScale)
	}
	return nil
}
