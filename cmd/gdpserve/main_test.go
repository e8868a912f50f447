package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

func TestParseArgs(t *testing.T) {
	cfg, hopts, addr, loads, pprofAddr, err := parseArgs([]string{
		"-addr", "127.0.0.1:9999", "-eps", "3", "-delta", "1e-6",
		"-rounds", "5", "-seed", "42", "-allow-path-ingest",
		"-pprof", "127.0.0.1:6060",
		"-dataset", "a=/tmp/a.tsv", "-dataset", "b=/tmp/b.bpg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pprofAddr != "127.0.0.1:6060" {
		t.Fatalf("pprof addr = %q", pprofAddr)
	}
	if addr != "127.0.0.1:9999" || cfg.Budget.Epsilon != 3 || cfg.Budget.Delta != 1e-6 ||
		cfg.Rounds != 5 || cfg.Seed != 42 {
		t.Fatalf("cfg = %+v addr = %q", cfg, addr)
	}
	if len(loads) != 2 || loads[0] != (preload{"a", "/tmp/a.tsv"}) || loads[1] != (preload{"b", "/tmp/b.bpg"}) {
		t.Fatalf("loads = %+v", loads)
	}
	if !hopts.AllowPathIngest {
		t.Fatal("-allow-path-ingest not threaded through")
	}

	if _, hopts, _, _, pprofDef, err := parseArgs(nil); err != nil || hopts.AllowPathIngest {
		t.Fatalf("path ingest must default off (hopts=%+v err=%v)", hopts, err)
	} else if pprofDef != "" {
		t.Fatalf("defaults: pprof=%q", pprofDef)
	}
	if _, _, _, _, _, err := parseArgs([]string{"-dataset", "missing-equals"}); err == nil {
		t.Fatal("malformed -dataset accepted")
	}
	// A served query has one kernel path and a -ledger-dir spend is
	// always fsynced: neither is a flag.
	for _, args := range [][]string{
		{"-release-workers", "2"},
		{"-ledger-dir", t.TempDir(), "-fsync", "off"},
		{"-ledger-dir", t.TempDir(), "-fsync-interval", "50ms"},
	} {
		if _, _, _, _, _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}

	// seed 0 draws entropy.
	cfg, _, _, _, _, err = parseArgs([]string{"-seed", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed == 0 {
		t.Fatal("seed 0 was not replaced with entropy")
	}
}

// TestServeEndToEnd boots the real binary path: preload a TSV, serve,
// query over HTTP, shut down on context cancel.
func TestServeEndToEnd(t *testing.T) {
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edges.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveTSV(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-rounds", "5", "-seed", "7",
			"-dataset", "tiny=" + path,
		}, func(addr string) { addrc <- addr })
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never started")
	}

	resp, err := http.Post(base+"/v1/datasets/tiny/sessions", "application/json",
		bytes.NewReader([]byte(`{"stream": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		Session uint64 `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%d/level", base, sess.Session),
		"application/json", bytes.NewReader([]byte(`{"level": 2}`)))
	if err != nil {
		t.Fatal(err)
	}
	var level struct {
		View struct {
			Cells struct {
				Counts []float64 `json:"counts"`
			} `json:"cells"`
		} `json:"view"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&level); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(level.View.Cells.Counts) == 0 {
		t.Fatalf("level query: status %d, %d cells", resp.StatusCode, len(level.View.Cells.Counts))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}
