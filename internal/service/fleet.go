package service

import (
	"errors"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// fleetPostBody is the POST /v1/fleet envelope: exactly one of a fleet
// sweep or a Vcc-min prediction study.
type fleetPostBody struct {
	Sweep   *tasks.FleetRequest   `json:"sweep,omitempty"`
	Predict *tasks.PredictRequest `json:"predict,omitempty"`
}

// fleetPostTask resolves the POST /v1/fleet body, the JSON form of
// both population kinds: {"sweep": {...}} is a fleet sweep (the body
// form of GET /v1/fleet), {"predict": {...}} a data-efficient Vcc-min
// prediction study.
func fleetPostTask(body fleetPostBody) (engine.Task, error) {
	switch {
	case body.Sweep != nil && body.Predict != nil:
		return nil, errors.New("body must contain exactly one of sweep or predict, got both")
	case body.Sweep != nil:
		return tasks.NewFleetTask(*body.Sweep)
	case body.Predict != nil:
		return tasks.NewPredictTask(*body.Predict)
	}
	return nil, errors.New("body must contain one of sweep or predict")
}
