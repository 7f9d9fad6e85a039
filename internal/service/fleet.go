package service

import (
	"net/http"

	"vccmin/internal/tasks"
)

// fleetPostBody is the POST /v1/fleet envelope: exactly one of a fleet
// sweep or a Vcc-min prediction study.
type fleetPostBody struct {
	Sweep   *tasks.FleetRequest   `json:"sweep,omitempty"`
	Predict *tasks.PredictRequest `json:"predict,omitempty"`
}

// handleFleetPost accepts the JSON forms of both population kinds:
// {"sweep": {...}} runs a fleet sweep (the body form of GET /v1/fleet),
// {"predict": {...}} a data-efficient Vcc-min prediction study.
func (s *Server) handleFleetPost(w http.ResponseWriter, r *http.Request) {
	var body fleetPostBody
	if err := decodeBody(w, r, &body); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	switch {
	case body.Sweep != nil && body.Predict != nil:
		writeErr(w, http.StatusBadRequest, "body must contain exactly one of sweep or predict, got both")
	case body.Sweep != nil:
		t, err := tasks.NewFleetTask(*body.Sweep)
		s.serveTask(w, r, t, err)
	case body.Predict != nil:
		t, err := tasks.NewPredictTask(*body.Predict)
		s.serveTask(w, r, t, err)
	default:
		writeErr(w, http.StatusBadRequest, "body must contain one of sweep or predict")
	}
}
