package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("marginal=3,topk=1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.marginal-0.75) > 1e-12 || math.Abs(m.topk-0.25) > 1e-12 || m.level != 0 {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"", "marginal", "marginal=x", "bogus=1", "marginal=0,topk=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestMembersPerGroup(t *testing.T) {
	cases := []struct {
		h    float64
		want int
	}{{0, 1}, {0.5, 2}, {0.75, 4}, {0.9, 10}, {0.99, 16}, {1, 16}}
	for _, c := range cases {
		if got := membersPerGroup(c.h); got != c.want {
			t.Errorf("membersPerGroup(%v) = %d, want %d", c.h, got, c.want)
		}
	}
}

// TestHdrHist checks the log-linear histogram's bucketing error bound
// and percentile walk.
func TestHdrHist(t *testing.T) {
	// Reconstruction error is bounded by half a bucket width: exact
	// below 64, ≤ 1/32 relative above.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 12345, 1 << 20, 1<<40 + 9} {
		got := hdrValue(hdrIndex(v))
		if v < 64 {
			if got != v {
				t.Errorf("hdrValue(hdrIndex(%d)) = %d, want exact", v, got)
			}
			continue
		}
		if relErr := math.Abs(float64(got)-float64(v)) / float64(v); relErr > 1.0/32 {
			t.Errorf("value %d reconstructed as %d (rel err %v)", v, got, relErr)
		}
	}

	h := newHdrHist()
	for v := uint64(1); v <= 1000; v++ {
		h.add(v)
	}
	if p50 := h.percentile(0.50); math.Abs(float64(p50)-500) > 500.0/32+1 {
		t.Errorf("p50 = %d, want ~500", p50)
	}
	if p99 := h.percentile(0.99); math.Abs(float64(p99)-990) > 990.0/32+1 {
		t.Errorf("p99 = %d, want ~990", p99)
	}
	if h.max.Load() != 1000 {
		t.Errorf("max = %d, want 1000", h.max.Load())
	}
}

// TestLoadRunEndToEnd stands up an in-process server, runs a short
// fixed-QPS open-loop pass and checks the run completes with zero
// errors, writes its JSON report, and that the replay scheme produced
// server-side cache hits. The server admits exactly the 2 × 4 session
// handles one run opens, and the run goes twice: the second can only
// open its sessions if the first closed every one of its own.
func TestLoadRunEndToEnd(t *testing.T) {
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := repro.OpenRegistry(repro.ServeConfig{
		Budget:   repro.Params{Epsilon: 1000, Delta: 1e-3},
		PerQuery: repro.Params{Epsilon: 0.05, Delta: 1e-7},
		Rounds:   5,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.AddDataset("load", repro.NewGraphEdgeSource(g)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repro.NewServeHandlerWith(reg, repro.ServeHandlerOptions{MaxSessions: 8}))
	defer srv.Close()

	benchPath := filepath.Join(t.TempDir(), "load.json")
	var out bytes.Buffer
	var rep loadReport
	for i := 0; i < 2; i++ {
		out.Reset()
		err = run([]string{
			"-addr", srv.URL,
			"-dataset", "load",
			"-qps", "50",
			"-duration", "2s",
			"-sessions", "2",
			"-hit-ratio", "0.75",
			"-level-max", "3",
			"-seed", "9",
			"-benchjson", benchPath,
			"-timeout", "10s",
		}, &out)
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out.String())
		}

		blob, err := os.ReadFile(benchPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Errorf("run %d: errors = %d, want 0\n%s", i, rep.Errors, out.String())
		}
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.AchievedQPS <= 0 {
		t.Errorf("achieved_qps = %v", rep.AchievedQPS)
	}
	if rep.CacheHits == 0 {
		t.Errorf("hit-ratio 0.75 produced no cache hits (misses=%d)\n%s",
			rep.CacheMisses, out.String())
	}
	if rep.GOMAXPROCS < 1 || rep.NumCPU < 1 {
		t.Errorf("CPU stamp missing: gomaxprocs=%d num_cpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	if rep.Members != 4 {
		t.Errorf("members_per_session = %d, want 4 at hit-ratio 0.75", rep.Members)
	}
	if rep.DurationS < 1.5 || rep.DurationS > 30 {
		t.Errorf("duration_s = %v", rep.DurationS)
	}
}

// TestRunRejectsBadFlags covers flag validation without a server.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-qps", "0"},
		{"-qps", "-5"},
		{"-qps", "2e9"},
		{"-duration", "0s"},
		{"-sessions", "0"},
		{"-hit-ratio", "1.5"},
		{"-level-max", "0"},
		{"-k-max", "0"},
		{"-mix", "nope=1"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted", args)
		}
	}
}
