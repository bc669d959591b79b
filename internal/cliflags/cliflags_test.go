package cliflags

import (
	"flag"
	"testing"
)

func TestRegisterGeometryDefaultsAndBuild(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	g := RegisterGeometry(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !g.IsMesh() || g.Width != 8 || g.Height != 8 {
		t.Fatalf("defaults: %+v", g)
	}
	tp, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Name() != "mesh" || tp.Endpoints() != g.Endpoints() {
		t.Fatalf("built %s with %d endpoints, want mesh with %d",
			tp.Name(), tp.Endpoints(), g.Endpoints())
	}
}

func TestGeometryFabrics(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		name      string
		endpoints int
	}{
		{[]string{"-topo", "benes", "-width", "8", "-height", "1"}, "benes", 8},
		{[]string{"-topo", "shufflecast", "-width", "4", "-height", "4", "-arity", "2"}, "shufflecast", 16},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		g := RegisterGeometry(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if g.IsMesh() {
			t.Fatalf("%v parsed as mesh", tc.args)
		}
		if err := g.RequireMesh("trace replay"); err == nil {
			t.Fatalf("%v: RequireMesh passed", tc.args)
		}
		tp, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Name() != tc.name || tp.Endpoints() != tc.endpoints {
			t.Fatalf("%v built %s/%d, want %s/%d",
				tc.args, tp.Name(), tp.Endpoints(), tc.name, tc.endpoints)
		}
		nets, err := (&Net{Geo: g, Model: "electrical", Delay: 2, fs: fs}).Networks()
		if err != nil {
			t.Fatal(err)
		}
		if len(nets) != 1 || nets[0].Topo == nil || nets[0].Build(1).Nodes() != tc.endpoints {
			t.Fatalf("%v built %+v, want one %d-node fabric network", tc.args, nets, tc.endpoints)
		}
	}
}

func TestGeometryRejectsUnknownFabric(t *testing.T) {
	g := &Geometry{Topo: "torus", Width: 8, Height: 8, Arity: 2}
	if _, err := g.Build(); err == nil {
		t.Fatal("unknown fabric built")
	}
}

func TestParseFaultArgSpecAndJSON(t *testing.T) {
	if _, err := ParseFaultArg("dead-link@3:E"); err != nil {
		t.Fatalf("spec: %v", err)
	}
	if _, err := ParseFaultArg(`{"faults":[]}`); err != nil {
		t.Fatalf("json: %v", err)
	}
	if _, err := ParseFaultArg("@/nonexistent/plan.json"); err == nil {
		t.Fatal("missing @file accepted")
	}
}
