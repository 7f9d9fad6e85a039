// Package clirun holds the scaffolding the ten CLIs share so each
// main stays a thin adapter over the engine task layer: the -version
// flag, engine construction with an optional persistent result cache,
// and JSON emission of engine result bytes.
//
// The result cache is the same content-addressed store vccmin-serve
// keeps under its data directory: pointing a CLI's -result-cache at a
// directory makes repeated invocations (and anything else sharing the
// directory) replay stored bytes instead of recomputing.
package clirun

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"vccmin/internal/buildinfo"
	"vccmin/internal/engine"
)

// VersionFlag registers the standard -version flag on fs.
func VersionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print the build version and exit")
}

// HandleVersion prints the build line and reports whether the caller
// should exit (the flag was set).
func HandleVersion(set *bool) bool {
	if set == nil || !*set {
		return false
	}
	fmt.Println(buildinfo.String())
	return true
}

// ResultCacheFlag registers the standard -result-cache flag on fs.
func ResultCacheFlag(fs *flag.FlagSet) *string {
	return fs.String("result-cache", "",
		"content-addressed result store directory (reused across runs; empty = in-memory only)")
}

// NewEngine builds the CLI's engine: in-memory only when cacheDir is
// empty, fronting the persistent store there otherwise.
func NewEngine(cacheDir string) (*engine.Engine, error) {
	return engine.New(engine.Options{Dir: cacheDir})
}

// RunTask executes one task through the engine and reports the serving
// tier on stderr when the result was replayed rather than computed.
func RunTask(eng *engine.Engine, name string, t engine.Task) (engine.Result, error) {
	res, err := eng.Do(context.Background(), t)
	if err != nil {
		return res, err
	}
	if res.Source != engine.SourceCompute {
		fmt.Fprintf(os.Stderr, "%s: %s/%s served from result cache (%s)\n",
			name, t.Kind(), t.CanonicalHash(), res.Source)
	}
	return res, nil
}

// EmitJSON writes engine result bytes as a newline-terminated JSON
// document, indented when pretty is set. Indentation only reshapes
// whitespace: the compact form is byte-identical to what the server
// stores and serves for the same task.
func EmitJSON(w io.Writer, b []byte, pretty bool) error {
	if pretty {
		var buf bytes.Buffer
		if err := json.Indent(&buf, b, "", "  "); err != nil {
			return err
		}
		b = buf.Bytes()
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.Write([]byte{'\n'})
	return err
}

// WriteOutput sends the document to path, or stdout when path is empty.
func WriteOutput(path string, b []byte, pretty bool) error {
	if path == "" {
		return EmitJSON(os.Stdout, b, pretty)
	}
	var buf bytes.Buffer
	if err := EmitJSON(&buf, b, pretty); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Fatal prints the error under the command's name and exits 1.
func Fatal(name string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}
