package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"phastlane/internal/figures"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// networksFor registers cmd's real flag surface on a fresh FlagSet,
// parses args and runs the validation the command performs before any
// run starts.
func networksFor(t *testing.T, cmd string, args []string) ([]figures.NetConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var networks func() ([]figures.NetConfig, error)
	switch cmd {
	case "phastlane", "electrical":
		model := map[string]string{"phastlane": "optical", "electrical": "electrical"}[cmd]
		p := RegisterPoint(fs, model)
		networks = func() ([]figures.NetConfig, error) {
			c, err := p.Network()
			return []figures.NetConfig{c}, err
		}
	case "inspect", "why":
		verb := map[string]string{"inspect": "inspect", "why": "explain"}[cmd]
		networks = RegisterDeepDive(fs, verb).Net.Networks
	default:
		t.Fatalf("unknown cmd %q", cmd)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%s %v: parse: %v", cmd, args, err)
	}
	return networks()
}

func TestFlagMatrixRejects(t *testing.T) {
	// Every mesh-only flag each command registers, with a value that is
	// valid on the mesh.
	meshOnly := map[string][]string{
		"phastlane":  {"-hops 8", "-buffers 32", "-faults dead-link@9:E", "-retry-limit 8", "-trace x.trace"},
		"electrical": {"-faults dead-link@9:E", "-trace x.trace"},
		"inspect":    {"-net optical", "-hops 8", "-buffers 32", "-delay 2"},
		"why":        {"-net electrical", "-hops 8", "-buffers 32", "-delay 2"},
	}
	fabrics := [][]string{
		{"-topo", "benes", "-width", "8", "-height", "1"},
		{"-topo", "shufflecast", "-width", "8", "-height", "1", "-arity", "2"},
	}
	type row struct {
		cmd  string
		args []string
		want string
	}
	var rows []row
	for cmd, flags := range meshOnly {
		for _, fab := range fabrics {
			for _, f := range flags {
				args := append(append([]string{}, fab...), strings.Fields(f)...)
				rows = append(rows, row{cmd, args, "requires -topo mesh"})
			}
		}
	}
	rows = append(rows,
		row{"phastlane", []string{"-cc", "-trace", "x.trace"}, "-cc applies to synthetic-traffic runs"},
		row{"electrical", []string{"-cc", "-trace", "x.trace"}, "-cc applies to synthetic-traffic runs"},
		row{"inspect", []string{"-net", "bogus"}, "unknown -net"},
		row{"why", []string{"-net", "bogus"}, "unknown -net"},
		row{"inspect", append([]string{"-net", "bogus"}, fabrics[0]...), "unknown -net"},
		row{"why", append([]string{"-net", "bogus"}, fabrics[1]...), "unknown -net"},
		row{"phastlane", []string{"-buffers", "0"}, "zero BufferEntries"},
		row{"inspect", []string{"-buffers", "0"}, "zero BufferEntries"},
		row{"electrical", []string{"-delay", "1"}, "router delay 1"},
		row{"why", []string{"-delay", "1"}, "router delay 1"},
		row{"phastlane", []string{"-faults", "dead-link@99:E"}, "outside the 64-node mesh"},
		row{"phastlane", []string{"-topo", "torus"}, "torus"},
	)
	for _, r := range rows {
		_, err := networksFor(t, r.cmd, r.args)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s %s: got error %v, want one containing %q", r.cmd, strings.Join(r.args, " "), err, r.want)
		}
	}
}

func TestFlagMatrixBuilds(t *testing.T) {
	for _, tc := range []struct {
		cmd   string
		args  string
		names []string
		nodes int
	}{
		{"phastlane", "", []string{"optical"}, 64},
		{"phastlane", "-hops 8 -buffers -1 -trace x.trace", []string{"optical"}, 64},
		{"phastlane", "-faults seed=3;dead-link@9:E -retry-limit 8 -loss-timeout 2000", []string{"optical"}, 64},
		{"phastlane", "-topo benes -width 8 -height 1 -loss-timeout 2000 -cc", []string{"benes"}, 8},
		{"electrical", "-delay 2 -width 4 -height 4", []string{"electrical"}, 16},
		{"electrical", "-topo shufflecast -width 8 -height 1 -arity 2 -delay 2", []string{"shufflecast"}, 8},
		{"inspect", "", []string{"optical", "electrical"}, 64},
		{"inspect", "-net electrical -width 4 -height 4 -delay 2", []string{"electrical"}, 16},
		{"inspect", "-topo benes -width 8 -height 1", []string{"benes"}, 8},
		{"why", "-net optical -hops 5 -buffers 32", []string{"optical"}, 64},
		{"why", "-topo shufflecast -width 4 -height 4 -arity 2", []string{"shufflecast"}, 16},
	} {
		nets, err := networksFor(t, tc.cmd, strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%s %s: %v", tc.cmd, tc.args, err)
			continue
		}
		var names []string
		for _, n := range nets {
			names = append(names, n.Name)
			if got := n.Build(1).Nodes(); got != tc.nodes {
				t.Errorf("%s %s: %s has %d nodes, want %d", tc.cmd, tc.args, n.Name, got, tc.nodes)
			}
		}
		if strings.Join(names, ",") != strings.Join(tc.names, ",") {
			t.Errorf("%s %s: built %v, want %v", tc.cmd, tc.args, names, tc.names)
		}
	}
}

// TestFabricRouterDelay pins which router delay a fabric run gets: the
// electrical command's -delay, else the fabric simulator's default.
func TestFabricRouterDelay(t *testing.T) {
	latency := func(cmd, args string) float64 {
		nets, err := networksFor(t, cmd, strings.Fields("-topo benes -width 8 -height 1 "+args))
		if err != nil {
			t.Fatal(err)
		}
		res := sim.RunRate(nets[0].Build(1), sim.RateConfig{
			Pattern: traffic.Transpose(8), Rate: 0.01, Warmup: 10, Measure: 400, Seed: 1,
		})
		return res.Run.Latency.Mean()
	}
	def, d2, d3 := latency("phastlane", ""), latency("electrical", "-delay 2"), latency("electrical", "")
	if !(def < d2 && d2 < d3) {
		t.Fatalf("mean latency: default delay %.2f, -delay 2 %.2f, -delay 3 %.2f; want increasing", def, d2, d3)
	}
}
