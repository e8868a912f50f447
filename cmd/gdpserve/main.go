// Command gdpserve is the multi-tenant disclosure server: a long-lived
// process that ingests association-graph datasets through the streamed
// two-pass hierarchy build (edges are never resident — peak ingest
// memory is O(chunk + sides + 4^rounds) per dataset) and answers
// εg-group-DP level, marginal and top-k queries over HTTP, debiting a
// per-dataset privacy ledger before any noise is drawn.
//
// Usage:
//
//	gdpserve -addr 127.0.0.1:8080 -eps 2 -delta 1e-5
//	gdpserve -dataset dblp=/data/dblp.tsv -dataset rx=/data/pharmacy.bpg
//	gdpserve -seed 0                # OS-entropy seed (production: non-replayable)
//	gdpserve -strategy quadtree-laplace  # pure-ε releases (δ=0 budgets admitted)
//	gdpserve -ledger-addr 127.0.0.1:8850 # N replicas spend ONE budget via gdpledgerd
//
// Endpoints (see internal/serve):
//
//	POST   /v1/datasets/{name}           ingest (TSV/binary body, or JSON {"path": ...})
//	GET    /v1/datasets                  list
//	GET    /v1/datasets/{name}/budget    ledger state + audit report
//	POST   /v1/datasets/{name}/sessions  open a session ({"stream": n} pins the RNG stream)
//	POST   /v1/sessions/{id}/level       level view (noisy count + histogram)
//	POST   /v1/sessions/{id}/marginal    per-group marginals
//	POST   /v1/sessions/{id}/topk        heaviest groups
//
// With a pinned -seed, a pinned session stream replays byte-identical
// responses for the same query sequence; budget is debited either way.
// Budget exhaustion returns HTTP 429 and is permanent for the dataset.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "gdpserve:", err)
		os.Exit(1)
	}
}

// preload is one -dataset name=path flag.
type preload struct{ name, path string }

// parseArgs resolves flags into a serving config, the listen address,
// the datasets to preload, and the optional pprof side address.
func parseArgs(args []string) (cfg repro.ServeConfig, hopts repro.ServeHandlerOptions, addr string, loads []preload, pprof string, err error) {
	fs := flag.NewFlagSet("gdpserve", flag.ContinueOnError)
	var (
		addrFlag   = fs.String("addr", "127.0.0.1:8080", "listen address")
		eps        = fs.Float64("eps", 2.0, "per-dataset total privacy budget ε")
		delta      = fs.Float64("delta", 1e-5, "per-dataset total privacy budget δ")
		queryEps   = fs.Float64("query-eps", 0, "per-query ε (0 = ε/64)")
		queryDelta = fs.Float64("query-delta", 0, "per-query δ (0 = δ/64)")
		rounds     = fs.Int("rounds", 9, "specialization rounds per ingested hierarchy")
		phase1     = fs.Float64("phase1-eps", 0, "per-cut exponential-mechanism ε for private ingest (0 = public balanced grouping)")
		seed       = fs.Uint64("seed", 1, "RNG seed; 0 draws one from OS entropy (non-replayable)")
		strategy   = fs.String("strategy", "", "release strategy for ingested datasets (empty = "+repro.DefaultReleaseStrategy+"; per-dataset override via ingest ?strategy=); one of: "+strings.Join(repro.ReleaseStrategyNames(), ", "))
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "ingest build parallelism")
		lanes      = fs.Int("lanes", 2, "concurrent ingest lanes: how many dataset builds may run at once")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty = disabled)")
		pathIngest = fs.Bool("allow-path-ingest", false, "allow HTTP clients to ingest server-side files via JSON {\"path\": ...} (file-read oracle on open listeners; uploads are always allowed)")
		maxUpload  = fs.Int64("max-upload-bytes", 0, "cap on one ingest upload body spooled to temp disk (0 = 1 GiB default, negative = unlimited)")
		maxSess    = fs.Int("max-sessions", 0, "cap on concurrently open session handles (0 = 1024 default, negative = unlimited)")
		maxCache   = fs.Int("max-cache-entries", 0, "per-dataset response-cache capacity; replayed (stream, seq, query) keys serve their prior answer without re-debiting the ledger (0 = 1024 default, negative = disable caching)")
		ledgerDir  = fs.String("ledger-dir", "", "directory for durable per-dataset privacy ledgers (one WAL each, fsynced before every admitted spend); restarts replay spent budget so exhausted datasets stay exhausted (empty = in-memory ledgers, forgotten on exit)")
		ledgerAddr = fs.String("ledger-addr", "", "address of a shared gdpledgerd privacy-ledger sequencer (host:port, or a comma-separated replicated-group member list a:8850,b:8850,c:8850); all replicas pointed at it spend ONE budget per dataset; mutually exclusive with -ledger-dir")
	)
	fs.Var(preloadFlag{&loads}, "dataset", "preload a dataset as name=path (repeatable; TSV or binary, sniffed)")
	if err := fs.Parse(args); err != nil {
		return repro.ServeConfig{}, repro.ServeHandlerOptions{}, "", nil, "", err
	}
	resolvedSeed := *seed
	if resolvedSeed == 0 {
		s, err := repro.NewRandomSeed()
		if err != nil {
			return repro.ServeConfig{}, repro.ServeHandlerOptions{}, "", nil, "", err
		}
		resolvedSeed = s
	}
	cfg = repro.ServeConfig{
		Budget: repro.Params{Epsilon: *eps, Delta: *delta},
		// A zero PerQuery (neither flag set) selects the Budget/64
		// serving default in OpenRegistry.
		PerQuery:        repro.Params{Epsilon: *queryEps, Delta: *queryDelta},
		Rounds:          *rounds,
		Phase1Epsilon:   *phase1,
		Strategy:        *strategy,
		Seed:            resolvedSeed,
		Workers:         *workers,
		IngestLanes:     *lanes,
		MaxCacheEntries: *maxCache,
		LedgerDir:       *ledgerDir,
		LedgerAddr:      *ledgerAddr,
	}
	hopts = repro.ServeHandlerOptions{
		AllowPathIngest: *pathIngest,
		MaxUploadBytes:  *maxUpload,
		MaxSessions:     *maxSess,
	}
	return cfg, hopts, *addrFlag, loads, *pprofAddr, nil
}

// preloadFlag accumulates repeated -dataset name=path values.
type preloadFlag struct{ loads *[]preload }

func (p preloadFlag) String() string { return "" }

func (p preloadFlag) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*p.loads = append(*p.loads, preload{name: name, path: path})
	return nil
}

// run opens the registry, preloads datasets, and serves until ctx is
// canceled. started (if non-nil) receives the bound address once the
// listener is up — the test hook.
func run(ctx context.Context, args []string, started func(addr string)) error {
	cfg, hopts, addr, loads, pprofAddr, err := parseArgs(args)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		stopProf, err := startPprof(pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
	}
	reg, err := repro.OpenRegistry(cfg)
	if err != nil {
		return err
	}
	// Close syncs and closes every durable ledger WAL; its error must
	// reach the operator.
	closeReg := func() error { return reg.Close() }
	defer func() { _ = closeReg() }()

	for _, l := range loads {
		if err := ingestFile(reg, l.name, l.path); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("gdpserve: listening on %s (budget %s per dataset, seed %d)\n",
		ln.Addr(), cfg.Budget, cfg.Seed)
	if started != nil {
		started(ln.Addr().String())
	}

	srv := httpServer(repro.NewServeHandlerWith(reg, hopts))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return closeReg()
	}
}

// httpServer wraps a handler with the slow-client timeouts every server
// we expose must carry: a stalled peer may not hold a connection (and
// its goroutine) forever. ReadTimeout is generous because ingest bodies
// stream for a while on big datasets; idle keep-alives still expire.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// startPprof serves net/http/pprof on its own listener and mux — the
// profiling surface never shares a port (or the default mux) with the
// query API, so exposing it stays an explicit operator decision. The
// returned func closes the listener.
func startPprof(addr string) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := httpServer(mux)
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("gdpserve: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// ingestFile streams one -dataset file into the registry.
func ingestFile(reg *repro.Registry, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("preloading %q: %w", name, err)
	}
	defer f.Close()
	src, err := repro.OpenEdgeSourceFile(f)
	if err != nil {
		return fmt.Errorf("preloading %q: %w", name, err)
	}
	ds, err := reg.AddDataset(name, src)
	if err != nil {
		return fmt.Errorf("preloading %q: %w", name, err)
	}
	fmt.Printf("gdpserve: preloaded %q: %s\n", name, ds.Stats())
	return nil
}
