package service

import (
	"fmt"
	"net/http"
	"net/url"
	"reflect"

	"vccmin/internal/cliflag"
	"vccmin/internal/engine"
)

// Every service entry point runs one path: bind → construct → admit.
// bindQuery fills a task request struct from the query string (POST
// bodies decode into the same structs), the internal/tasks constructor
// resolves it — parsed, defaulted and validated once, into a task whose
// Run uses what it resolved — and admit applies the service's size
// limits before anything is queued or computed. taskRoute is that path
// for every GET and POST task route.

// bindQuery fills the struct v points to from query parameters, one
// parameter per field cliflag.Walk visits, named by the field's json
// tag and parsed by cliflag.Set — the walk and parser the CLIs' flags
// bind through. Absent or empty parameters leave the field at its
// starting value, so a caller's pre-set fields act as GET-only
// defaults. A value that does not parse is reported as
// `bad <name> "<value>"`.
func bindQuery(q url.Values, v any) error {
	return cliflag.Walk(v, func(name string, _ reflect.StructTag, f reflect.Value) error {
		raw := q.Get(name)
		if raw == "" {
			return nil
		}
		if err := cliflag.Set(f, raw); err != nil {
			return fmt.Errorf("bad %s %q", name, raw)
		}
		return nil
	})
}

// getTask is the handler of a GET route whose query binds into the task
// request R over start (the route's GET-only defaults); the admitted
// task runs on the interactive tier.
func getTask[R any, T engine.Task](s *Server, start R, build func(R) (T, error)) http.HandlerFunc {
	bind := func(_ http.ResponseWriter, r *http.Request, req *R) error {
		*req = start
		return bindQuery(r.URL.Query(), req)
	}
	return taskRoute(s, bind, build, runInteractive[T])
}

// postTask is the handler of a POST route whose JSON body decodes into
// the task request R; serve answers with the admitted task.
func postTask[R any, T engine.Task](s *Server, build func(R) (T, error),
	serve func(*Server, http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	decode := func(w http.ResponseWriter, r *http.Request, req *R) error { return decodeBody(w, r, req) }
	return taskRoute(s, decode, build, serve)
}

// taskRoute binds a request, constructs its task with build and admits
// it, answering 400 when any of the three fails; serve answers with the
// admitted task.
func taskRoute[R any, T engine.Task](s *Server, bind func(http.ResponseWriter, *http.Request, *R) error,
	build func(R) (T, error), serve func(*Server, http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		err := bind(w, r, &req)
		var t T
		if err == nil {
			t, err = build(req)
		}
		if err == nil {
			err = s.admit(t)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%s", err)
			return
		}
		serve(s, w, r, t)
	}
}

// runInteractive runs an admitted task on the pool's interactive tier.
func runInteractive[T engine.Task](s *Server, w http.ResponseWriter, r *http.Request, t T) {
	s.runTaskTier(w, r, t, engine.TierInteractive)
}

// page is the offset/limit window the paginated listings bind.
type page struct {
	Offset int `json:"offset"`
	Limit  int `json:"limit"` // 0 = unlimited
}

// bindPage binds and validates a listing's paging parameters.
func bindPage(q url.Values) (page, error) {
	var p page
	if err := bindQuery(q, &p); err != nil {
		return p, err
	}
	if p.Offset < 0 {
		return p, fmt.Errorf("offset %d negative", p.Offset)
	}
	if p.Limit < 0 {
		return p, fmt.Errorf("limit %d negative (0 = unlimited)", p.Limit)
	}
	return p, nil
}

// window returns the [lo, hi) slice of total items the page covers.
func (p page) window(total int) (lo, hi int) {
	lo, hi = min(p.Offset, total), total
	if p.Limit > 0 && p.Limit < hi-lo {
		hi = lo + p.Limit
	}
	return lo, hi
}
