package dag_test

import (
	"slices"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
)

// On every zoo model the one-sweep Articulations returns its
// definition's list, in the same order.
func TestArticulationsMatchRemovalOnZoo(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		if got, want := g.Articulations(), dag.ArticulationsByRemoval(g); !slices.Equal(got, want) {
			t.Errorf("%s: Articulations %v, by removal %v", name, got, want)
		}
	}
}
