// Package buildinfo reports what build of the module is running: the
// module version and the VCS stamp Go embeds via
// runtime/debug.ReadBuildInfo. The ten CLIs print it under -version
// and the service reports it in /v1/stats, so an operator can always
// tell which build produced a result or is serving traffic.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// read is swapped in tests; it defaults to debug.ReadBuildInfo.
var read = debug.ReadBuildInfo

// Version returns the module version ("(devel)" for a source build
// without a tagged module version, "unknown" without build info).
func Version() string {
	bi, ok := read()
	if !ok || bi.Main.Version == "" {
		return "unknown"
	}
	return bi.Main.Version
}

// Revision returns the VCS revision the binary was built from and
// whether the working tree was modified; ok is false when no VCS stamp
// was embedded (e.g. `go run` outside a repository, or tests).
func Revision() (rev string, modified bool, ok bool) {
	bi, biOK := read()
	if !biOK {
		return "", false, false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			ok = true
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return rev, modified, ok
}

// String renders the one-line form the CLIs print and /v1/stats
// reports: "vccmin <version> (<rev12>[+dirty]) <go version>".
func String() string {
	out := "vccmin " + Version()
	if rev, modified, ok := Revision(); ok {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if modified {
			rev += "+dirty"
		}
		out += fmt.Sprintf(" (%s)", rev)
	}
	return out + " " + runtime.Version()
}
