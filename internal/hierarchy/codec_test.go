package hierarchy

import (
	"bytes"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestTreeEncodeBinaryCanonical pins what gdpbench -streamverify relies
// on: one structure encodes to one byte string (whatever the worker
// count), and a different arrangement of the same graph encodes to a
// different one.
func TestTreeEncodeBinaryCanonical(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	encode := func(opts Options) []byte {
		t.Helper()
		tree, err := BuildFromEdges(bipartite.NewGraphSource(g), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	sharded := encode(Options{Rounds: 3, Bisector: partition.BalancedBisector{}, Workers: 4})
	if !bytes.Equal(serial, sharded) {
		t.Fatal("worker count changed the encoding")
	}
	if !bytes.HasPrefix(serial, treeMagic[:]) {
		t.Fatalf("encoding starts %q, want the tree magic", serial[:4])
	}
	// Exponential-mechanism cuts over the same order move the boundaries.
	bis, err := partition.NewExpMechBisector(0.4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(serial, encode(Options{Rounds: 3, Bisector: bis})) {
		t.Fatal("a different arrangement encoded identically")
	}
}
