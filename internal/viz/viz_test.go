package viz

import (
	"bytes"
	"strings"
	"testing"

	"netplace/internal/gen"
	"netplace/internal/graph"
)

func TestWriteDotStructure(t *testing.T) {
	g := gen.Path(4, gen.UnitWeights)
	var buf bytes.Buffer
	if err := WriteDot(&buf, g, DotOptions{Copies: []int{2}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph \"netplace\" {",
		"n0 --", "n2 [label=\"2\" style=filled",
		"label=\"1\"", "}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// every node and edge present
	if strings.Count(out, " -- ") != g.M() {
		t.Fatalf("edge count mismatch: %d lines, %d edges", strings.Count(out, " -- "), g.M())
	}
}

func TestWriteDotCustomLabels(t *testing.T) {
	g := gen.Path(3, gen.UnitWeights)
	var buf bytes.Buffer
	err := WriteDot(&buf, g, DotOptions{
		Name:      "custom",
		NodeLabel: func(v int) string { return "N" + string(rune('A'+v)) },
		EdgeLabel: func(e graph.Edge) string { return "x" },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NA") || !strings.Contains(out, `label="x"`) || !strings.Contains(out, `graph "custom"`) {
		t.Fatalf("custom labels not applied:\n%s", out)
	}
}
