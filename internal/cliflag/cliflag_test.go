package cliflag

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"empty string", "", nil},
		{"only commas", ",,,", nil},
		{"only whitespace", "  \t ", nil},
		{"whitespace elements", " , \t,  ", nil},
		{"single", "block", []string{"block"}},
		{"plain list", "a,b,c", []string{"a", "b", "c"}},
		{"trims whitespace", " a ,\tb , c\t", []string{"a", "b", "c"}},
		{"skips empty elements", "a,,b,", []string{"a", "b"}},
		{"duplicates preserved", "a,a,b,a", []string{"a", "a", "b", "a"}},
		{"inner spaces kept", "a b,c", []string{"a b", "c"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Split(c.in); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Split(%q) = %#v, want %#v", c.in, got, c.want)
			}
		})
	}
}

func TestParseList(t *testing.T) {
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	cases := []struct {
		name    string
		in      string
		want    []int
		wantErr bool
	}{
		{"empty string", "", nil, false},
		{"only separators", ", ,", nil, false},
		{"parses each element", "1, 2,3", []int{1, 2, 3}, false},
		{"duplicates preserved", "7,7", []int{7, 7}, false},
		{"first error wins", "1,x,3", nil, true},
		{"error in last element", "1,2,x", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseList(c.in, atoi)
			if c.wantErr {
				if err == nil {
					t.Fatalf("ParseList(%q) = %v, want error", c.in, got)
				}
				if got != nil {
					t.Fatalf("ParseList(%q) returned %v alongside its error", c.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseList(%q): %v", c.in, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("ParseList(%q) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

// TestParseListStopsAtFirstError pins the contract that element parsing
// stops at the first failure: later elements are never parsed.
func TestParseListStopsAtFirstError(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	_, err := ParseList("a,b,c", func(s string) (string, error) {
		calls++
		if s == "b" {
			return "", fmt.Errorf("%s: %w", s, boom)
		}
		return s, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if calls != 2 {
		t.Fatalf("parse called %d times, want 2 (a then failing b)", calls)
	}
}

// TestParsePfailsRejectsNonFinite pins that no spelling of NaN or an
// infinity reaches a pfail axis, in a list or a range.
func TestParsePfailsRejectsNonFinite(t *testing.T) {
	for _, s := range []string{"NaN", "1e-3,inf", "-Inf", "1e-4:NaN:3", "nan:1e-3:2", "1e-4:Infinity:2"} {
		if got, err := ParsePfails(s); err == nil {
			t.Errorf("ParsePfails(%q) = %v, want an error", s, got)
		}
	}
}
