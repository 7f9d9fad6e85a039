// Package cliflag binds text to the internal/tasks request structs
// and to the service and load-generator configs, so each field is
// declared once, in its struct, for every text surface: Walk visits a
// struct's json-tagged fields, Set parses one text value into a field,
// and both the service's GET query binder and Bind, which registers a
// struct's fields as command-line flags, go through them. List syntax cannot drift between surfaces: empty
// elements are skipped, surrounding whitespace is trimmed, and element
// parsing stops at the first error.
package cliflag

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Split breaks a comma-separated list into trimmed, non-empty elements.
func Split(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// ParseList parses each element of a comma-separated list with parse,
// returning the first error.
func ParseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, v := range Split(s) {
		t, err := parse(v)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ParsePfails parses the pfail axis syntax shared by vccmin-sweep and
// vccmin-query: a comma list ("1e-4,5e-4") or lo:hi:n for n log-spaced
// points inclusive of both endpoints.
func ParsePfails(s string) ([]float64, error) {
	if lo, hi, n, ok := parseRange(s); ok {
		if lo <= 0 || hi < lo || n < 1 {
			return nil, fmt.Errorf("bad pfail range %q: need 0 < lo <= hi and n >= 1", s)
		}
		if n == 1 {
			return []float64{lo}, nil
		}
		out := make([]float64, n)
		step := math.Log(hi/lo) / float64(n-1)
		for i := range out {
			out[i] = lo * math.Exp(float64(i)*step)
		}
		out[n-1] = hi // exact endpoint despite float rounding
		return out, nil
	}
	return ParseList(s, parseFloat)
}

// parseFloat is strconv.ParseFloat without NaN and the infinities: no
// request field takes one, JSON cannot carry one, and a canonical hash
// cannot digest one.
func parseFloat(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return x, err
}

// parseRange recognizes lo:hi:n.
func parseRange(s string) (lo, hi float64, n int, ok bool) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	lo, err1 := parseFloat(parts[0])
	hi, err2 := parseFloat(parts[1])
	n, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return lo, hi, n, true
}
