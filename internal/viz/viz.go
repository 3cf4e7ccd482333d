// Package viz renders networks and placements for humans as Graphviz DOT
// (with copy nodes highlighted and edge fees as labels). cmd/placer
// exposes it behind -dot.
package viz

import (
	"fmt"
	"io"

	"netplace/internal/graph"
)

// DotOptions tunes the DOT export.
type DotOptions struct {
	// Copies marks nodes to highlight (e.g. a placement's copy set).
	Copies []int
	// NodeLabel overrides node labels; nil uses the node id.
	NodeLabel func(v int) string
	// EdgeLabel overrides edge labels; nil prints the fee with %g.
	EdgeLabel func(e graph.Edge) string
	// Name is the graph name; empty uses "netplace".
	Name string
}

// WriteDot emits an undirected Graphviz graph.
func WriteDot(w io.Writer, g *graph.Graph, opt DotOptions) error {
	name := opt.Name
	if name == "" {
		name = "netplace"
	}
	if _, err := fmt.Fprintf(w, "graph %q {\n  node [shape=circle fontsize=10];\n", name); err != nil {
		return err
	}
	isCopy := make(map[int]bool, len(opt.Copies))
	for _, c := range opt.Copies {
		isCopy[c] = true
	}
	for v := 0; v < g.N(); v++ {
		label := fmt.Sprintf("%d", v)
		if opt.NodeLabel != nil {
			label = opt.NodeLabel(v)
		}
		attrs := fmt.Sprintf("label=%q", label)
		if isCopy[v] {
			attrs += " style=filled fillcolor=gold penwidth=2"
		}
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", v, attrs); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		label := fmt.Sprintf("%g", e.W)
		if opt.EdgeLabel != nil {
			label = opt.EdgeLabel(e)
		}
		if _, err := fmt.Fprintf(w, "  n%d -- n%d [label=%q];\n", e.U, e.V, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
