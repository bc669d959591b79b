// Package cliflags consolidates the command-line blocks the cmds used
// to copy-paste: the topology/geometry flags (-topo, -width, -height,
// -arity), the shared -seed flag, the plain -telemetry-addr endpoint
// flag, the -faults argument parser, and the uniform error exit. The
// single-point cmds go further: their flags are registered here
// (RegisterPoint for phastlane/electrical, RegisterDeepDive for
// inspect/why), one builder (Net.Networks) turns them into validated
// networks on the mesh or a fabric, and one run body each (Point.Run,
// DeepDive.Run) drives them. Sweep-style cmds take just the telemetry
// endpoint address.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phastlane/internal/fault"
	"phastlane/internal/topo"
)

// Geometry is the shared fabric-selection flag block. The mesh reads
// -width x -height directly; the indirect fabrics (benes, shufflecast)
// take width*height as their endpoint count, so "-topo benes -width 8
// -height 1" is an 8-endpoint Benes and per-node matrices stay shaped
// width x height on every fabric.
type Geometry struct {
	Topo          string
	Width, Height int
	Arity         int
}

// RegisterGeometry registers the topology/geometry block on fs
// (flag.CommandLine for commands) and returns the destination.
func RegisterGeometry(fs *flag.FlagSet) *Geometry {
	g := &Geometry{}
	fs.StringVar(&g.Topo, "topo", "mesh",
		"fabric: "+strings.Join(topo.Names(), ", "))
	fs.IntVar(&g.Width, "width", 8,
		"mesh width; indirect fabrics use width*height endpoints")
	fs.IntVar(&g.Height, "height", 8, "mesh height")
	fs.IntVar(&g.Arity, "arity", 2,
		"shufflecast radix (ignored by other fabrics)")
	return g
}

// Build constructs the selected topology.
func (g *Geometry) Build() (topo.Topology, error) {
	return topo.New(g.Topo, g.Width, g.Height, g.Arity)
}

// Endpoints is the endpoint count the geometry implies on every fabric.
func (g *Geometry) Endpoints() int { return g.Width * g.Height }

// IsMesh reports whether the 2D-mesh-specific simulators (core,
// electrical) apply; the indirect fabrics run on fabsim instead.
func (g *Geometry) IsMesh() bool { return g.Topo == "" || g.Topo == "mesh" }

// RequireMesh errors when a mesh-only feature is combined with an
// indirect fabric, naming the feature in the message.
func (g *Geometry) RequireMesh(feature string) error {
	if g.IsMesh() {
		return nil
	}
	return fmt.Errorf("%s requires -topo mesh (got %q)", feature, g.Topo)
}

// Seed registers the shared -seed flag.
func Seed(fs *flag.FlagSet) *int64 { return fs.Int64("seed", 1, "random seed") }

// TelemetryAddr registers the endpoint-only telemetry flag the
// sweep-style cmds use with telemetry.Start; single-run cmds register
// the full telemetry.CLI bundle instead.
func TelemetryAddr(fs *flag.FlagSet) *string {
	return fs.String("telemetry-addr", "",
		"serve live telemetry (Prometheus /metrics, /telemetry.json, /debug/pprof/) on this address; empty = off")
}

// ParseFaultArg turns a -faults argument into a plan: @path loads a
// file, a leading '{' parses as JSON, anything else as the compact
// spec string.
func ParseFaultArg(arg string) (*fault.Plan, error) {
	text := arg
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		text = string(data)
	}
	if strings.HasPrefix(strings.TrimSpace(text), "{") {
		return fault.ParseJSON([]byte(text))
	}
	return fault.ParseSpec(strings.TrimSpace(text))
}

// Fail prints "cmd: err" to stderr and exits 1 — the uniform cmd error
// path.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}
