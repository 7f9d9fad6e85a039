package cliflag

import (
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// Walk calls fn for each field of the struct v points to that carries a
// json name, in declaration order, with that name, the field's tag and
// the settable field. A nested struct field is walked in place, so its
// fields read as the outer struct's own. Walk stops at fn's first error.
func Walk(v any, fn func(name string, tag reflect.StructTag, f reflect.Value) error) error {
	return walk(reflect.ValueOf(v).Elem(), fn)
}

func walk(rv reflect.Value, fn func(string, reflect.StructTag, reflect.Value) error) error {
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		sf := rt.Field(i)
		name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		var err error
		if f := rv.Field(i); f.Kind() == reflect.Struct {
			err = walk(f, fn)
		} else {
			err = fn(name, sf.Tag, f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Set parses raw into one field Walk visits. Field types: string;
// []string (comma list, see Split); []float64 (ParsePfails, so lo:hi:n
// works); int; int64 (full 64-bit range, so seeds never truncate);
// float64 and *float64 (finite only; a pointer gets a fresh value, never
// written through); time.Duration (time.ParseDuration); bool
// (1/0/true/false); map[string]string (comma list of key=value).
func Set(f reflect.Value, raw string) error {
	var err error
	switch p := f.Addr().Interface().(type) {
	case *string:
		*p = raw
	case *[]string:
		*p = Split(raw)
	case *[]float64:
		*p, err = ParsePfails(raw)
	case *int:
		*p, err = strconv.Atoi(raw)
	case *int64:
		*p, err = strconv.ParseInt(raw, 10, 64)
	case *float64:
		*p, err = parseFloat(raw)
	case **float64:
		var x float64
		x, err = parseFloat(raw)
		*p = &x
	case *time.Duration:
		*p, err = time.ParseDuration(raw)
	case *bool:
		*p, err = strconv.ParseBool(raw)
	case *map[string]string:
		*p, err = parseWhere(raw)
	default:
		panic(fmt.Sprintf("cliflag: cannot bind into %s", f.Type()))
	}
	return err
}

// parseWhere parses "axis=value,axis=value" into a filter map. Axis
// validity is the task constructor's to check, not this parser's.
func parseWhere(s string) (map[string]string, error) {
	parts := Split(s)
	if len(parts) == 0 {
		return nil, nil
	}
	m := make(map[string]string, len(parts))
	for _, p := range parts {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -where element %q: want axis=value", p)
		}
		if _, dup := m[k]; dup {
			return nil, fmt.Errorf("duplicate -where axis %q", k)
		}
		m[k] = v
	}
	return m, nil
}

// Bind registers one flag on fs for each field Walk visits in the
// struct v points to. The flag is named by the field's json name with
// '_' turned into '-', or by its `flag:"…"` tag where the command-line
// name predates the JSON one; its usage text is the `help:"…"` tag and
// its default the field's current value. A flag sets its field only
// when given, so a nil pointer field stays nil unless its flag is.
// Bind also sets fs.Usage to printUsage, so -h names each bound flag's
// value kind.
func Bind(fs *flag.FlagSet, v any) {
	Walk(v, func(name string, tag reflect.StructTag, f reflect.Value) error {
		fs.Var(field{f}, flagName(name, tag), tag.Get("help"))
		return nil
	})
	fs.Usage = func() { printUsage(fs) }
}

// printUsage prints the flag package's default usage text for fs, with
// each bound flag's value kind (-dies int, -timeout duration) where
// flag.PrintDefaults can only write "value" for a flag.Value type it
// does not know.
func printUsage(fs *flag.FlagSet) {
	named := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) {
		if f, ok := fl.Value.(field); ok && !f.IsBoolFlag() {
			named["  -"+fl.Name+" value\n"] = "  -" + fl.Name + " " + f.kind() + "\n"
		}
	})
	out := fs.Output()
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	fs.SetOutput(out)
	if fs.Name() == "" {
		fmt.Fprint(out, "Usage:\n")
	} else {
		fmt.Fprintf(out, "Usage of %s:\n", fs.Name())
	}
	for line := range strings.Lines(b.String()) {
		if k, ok := named[line]; ok {
			line = k
		}
		fmt.Fprint(out, line)
	}
}

func flagName(name string, tag reflect.StructTag) string {
	if n := tag.Get("flag"); n != "" {
		return n
	}
	return strings.ReplaceAll(name, "_", "-")
}

// Copy sets each field Walk visits in the struct dst points to from the
// field of the same json name in the struct src points to, and returns
// the flag names (as Bind names them) of src's non-zero fields that dst
// has no field for, in declaration order. Fields sharing a json name
// must share a type.
func Copy(dst, src any) (unmatched []string) {
	into := map[string]reflect.Value{}
	Walk(dst, func(name string, _ reflect.StructTag, f reflect.Value) error {
		into[name] = f
		return nil
	})
	Walk(src, func(name string, tag reflect.StructTag, f reflect.Value) error {
		if d, ok := into[name]; ok {
			d.Set(f)
		} else if !f.IsZero() {
			unmatched = append(unmatched, flagName(name, tag))
		}
		return nil
	})
	return unmatched
}

// field is one bound struct field as a flag.Value.
type field struct{ v reflect.Value }

func (f field) Set(s string) error { return Set(f.v, s) }

// String formats the field for the usage text, lists comma-separated;
// a zero field (and the zero field the flag package probes) formats as
// "".
func (f field) String() string {
	if !f.v.IsValid() || f.v.IsZero() {
		return ""
	}
	v := reflect.Indirect(f.v)
	if v.Kind() != reflect.Slice {
		return fmt.Sprint(v)
	}
	parts := make([]string, v.Len())
	for i := range parts {
		parts[i] = fmt.Sprint(v.Index(i))
	}
	return strings.Join(parts, ",")
}

// kind names the field's value in the usage text, as the flag package
// names its own flags' values; lists and key=value maps read "list".
func (f field) kind() string {
	switch f.v.Addr().Interface().(type) {
	case *int, *int64:
		return "int"
	case *float64, **float64:
		return "float"
	case *time.Duration:
		return "duration"
	case *string:
		return "string"
	}
	return "list"
}

// IsBoolFlag lets a bare -name set a bool field.
func (f field) IsBoolFlag() bool { return f.v.IsValid() && f.v.Kind() == reflect.Bool }
