package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bipartite"
)

// TestGeneratePinned fixes the exact graph Generate returns — edges, side
// sizes and, for the labeled preset, the interned names — by the sha256 of
// its binary encoding. A change to the generator that moves any of these
// moves every experiment built on it.
func TestGeneratePinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		cfg  Config
		want string
	}{
		{DBLPTiny(1), "f510fb793a65df46e018b28bafae631d50e4016329a07fd1079e34b928b72276"},
		{Pharmacy(1), "d416d3bf23bff4c7cc85a05bdd647e813495a062e5fdd209a747143607a3a79e"},
		{MovieRatings(1), "b7bd8e4bc60716cd89f236508f2b4d1c7faf9d507b62f01e2250774750fb6a4a"},
		{Config{Name: "dense", NumLeft: 30, NumRight: 30, NumEdges: 850, LeftZipf: 2, RightZipf: 2, Seed: 3}, "87c69fc30d7c5547855e37445b4f47322020b0eb52967c9e504e40355037989b"},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			t.Parallel()
			g, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := bipartite.EncodeBinary(&buf, g); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256 %s, pinned %s", got, tc.want)
			}
		})
	}
}
