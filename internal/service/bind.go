package service

import (
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"

	"vccmin/internal/cliflag"
	"vccmin/internal/engine"
)

// Every service entry point runs one path: bind → construct → admit.
// bindQuery fills a task request struct from the query string (POST
// bodies decode into the same structs), the internal/tasks constructor
// validates it into a task, and admit applies the service's size
// limits before anything is queued or computed.

// bindQuery fills the struct v points to from query parameters, one
// parameter per exported field, named by the field's json tag. Absent
// or empty parameters leave the field at its starting value, so a
// caller's pre-set fields act as GET-only defaults. A value that does
// not parse is reported as `bad <name> "<value>"`.
//
// Field types: string; []string (comma list); int; int64 (full 64-bit
// range, so seeds never truncate); float64; *float64 (nil when absent);
// bool (1/0/true/false).
func bindQuery(q url.Values, v any) error {
	rv := reflect.ValueOf(v).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		raw := q.Get(name)
		if name == "" || name == "-" || raw == "" {
			continue
		}
		if err := setField(rv.Field(i), raw); err != nil {
			return fmt.Errorf("bad %s %q", name, raw)
		}
	}
	return nil
}

// setField parses raw into one bindable field.
func setField(f reflect.Value, raw string) error {
	var err error
	switch p := f.Addr().Interface().(type) {
	case *string:
		*p = raw
	case *[]string:
		*p = cliflag.Split(raw)
	case *int:
		*p, err = strconv.Atoi(raw)
	case *int64:
		*p, err = strconv.ParseInt(raw, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(raw, 64)
	case **float64:
		var x float64
		x, err = strconv.ParseFloat(raw, 64)
		*p = &x
	case *bool:
		*p, err = strconv.ParseBool(raw)
	default:
		panic(fmt.Sprintf("service: cannot bind query parameter into %s", f.Type()))
	}
	return err
}

// getTask is the handler of a GET route whose query binds into the task
// request R: bind over start (the route's GET-only defaults), construct
// with build, then admit and run.
func getTask[R any, T engine.Task](s *Server, start R, build func(R) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := start
		if err := bindQuery(r.URL.Query(), &req); err != nil {
			writeErr(w, http.StatusBadRequest, "%s", err)
			return
		}
		t, err := build(req)
		s.serveTask(w, r, t, err)
	}
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
