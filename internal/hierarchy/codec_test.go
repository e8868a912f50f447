package hierarchy

import (
	"bytes"
	"testing"

	"repro/internal/partition"
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
		tree, err := Build(g, opts)
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
	// Keys that reverse node order move every permutation entry.
	keys := &OrderKeys{Left: make([]uint64, g.NumLeft()), Right: make([]uint64, g.NumRight())}
	for i := range keys.Left {
		keys.Left[i] = uint64(len(keys.Left) - i)
	}
	for i := range keys.Right {
		keys.Right[i] = uint64(len(keys.Right) - i)
	}
	if bytes.Equal(serial, encode(Options{Rounds: 3, Bisector: partition.BalancedBisector{}, Keys: keys})) {
		t.Fatal("a different node order encoded identically")
	}
}
