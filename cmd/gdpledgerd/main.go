// Command gdpledgerd is the shared privacy-ledger sequencer: it keeps
// one durable budget per (dataset, data-fingerprint) key in one log and
// admits spends over an idempotent HTTP/JSON protocol. Point N gdpserve
// replicas at it with -ledger-addr and they spend ONE (ε, δ) budget per
// dataset — the deployment shape where accounting stays centralized
// even when answering is not, closing the classic "two replicas
// silently double the budget" failure of distributed DP systems.
//
// Usage (a single node — a group of one):
//
//	gdpledgerd -addr 127.0.0.1:8850 -ledger-dir /var/lib/gdpledgerd
//	gdpserve   -addr 127.0.0.1:8080 -ledger-addr 127.0.0.1:8850 ...
//	gdpserve   -addr 127.0.0.1:8081 -ledger-addr 127.0.0.1:8850 ...
//
// Usage (replicated group — survives any minority failure):
//
//	gdpledgerd -addr a:8850 -ledger-dir /var/a -node-id n1 -peers n1=a:8850,n2=b:8850,n3=c:8850
//	gdpledgerd -addr b:8850 -ledger-dir /var/b -node-id n2 -peers n1=a:8850,n2=b:8850,n3=c:8850
//	gdpledgerd -addr c:8850 -ledger-dir /var/c -node-id n3 -peers n1=a:8850,n2=b:8850,n3=c:8850
//	gdpserve   -addr ...    -ledger-addr a:8850,b:8850,c:8850 ...
//
// Protocol (see internal/ledgerd):
//
//	POST /v1/ledgers/{key}/attach   open/replay a budget, returns the epoch token
//	POST /v1/ledgers/{key}/spend    idempotent admission (op_id dedups retries)
//	GET  /v1/ledgers/{key}          status + durability panel
//	GET  /v1/ledgers/{key}/ops      audit trail
//	GET  /healthz                   liveness
//	GET  /readyz                    readiness (primary with quorum, or follower with live leader)
//	POST /v1/group/{append,vote}    replication stream (with -peers)
//	GET  /v1/group/{state,status}   durable position / operator panel (with -peers)
//	POST /v1/group/promote          manual failover (with -peers)
//
// Every admitted spend is fsynced into the log before the ack — with
// -peers, fsynced on a MAJORITY of members before the ack — so an
// admission can never be forgotten. A restart replays the log; the
// epoch token carries the term, which a single node bumps on every start
// and a group on every election, so stale writers are fenced. A
// directory an older build's single-node mode wrote (per-key WALs and a
// .sequencer-epoch file) is refused, not read. Budgets are permanent: an
// exhausted key stays exhausted.
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
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/accountant"
	"repro/internal/ledgerd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "gdpledgerd:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	opts      ledgerd.Options
	addr      string
	pprofAddr string
}

// parseArgs resolves flags into the sequencer configuration.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("gdpledgerd", flag.ContinueOnError)
	var (
		addrFlag   = fs.String("addr", "127.0.0.1:8850", "listen address")
		ledgerDir  = fs.String("ledger-dir", "", "directory holding the durable budget log and term file (required)")
		fsync      = fs.String("fsync", "", "log fsync policy: always (the default; every admission is durable before its ack), interval, or off (a single node only)")
		fsyncEvery = fs.Duration("fsync-interval", 0, "max unsynced window under -fsync interval (0 = 100ms default)")
		pprofFlag  = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6061; empty = disabled)")
		nodeID     = fs.String("node-id", "", "this member's ID in a replicated group (requires -peers)")
		peersFlag  = fs.String("peers", "", "replicated-group membership as id=host:port[,id=host:port...], including this node (requires -node-id)")
		heartbeat  = fs.Duration("heartbeat", 0, "group replication heartbeat (0 = 100ms default)")
		election   = fs.Duration("election-timeout", 0, "base follower patience before bidding for leadership, randomized in [T, 2T) (0 = 1s default; negative disables auto elections — promote via POST /v1/group/promote)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *ledgerDir == "" {
		return config{}, errors.New("-ledger-dir is required (the sequencer exists to make budgets durable)")
	}
	policy, err := accountant.ParseFsyncPolicy(*fsync)
	if err != nil {
		return config{}, err
	}
	cfg := config{
		opts: ledgerd.Options{
			Dir:             *ledgerDir,
			Fsync:           policy,
			FsyncInterval:   *fsyncEvery,
			NodeID:          *nodeID,
			HeartbeatEvery:  *heartbeat,
			ElectionTimeout: *election,
		},
		addr:      *addrFlag,
		pprofAddr: *pprofFlag,
	}
	if (*peersFlag == "") != (*nodeID == "") {
		return config{}, errors.New("-peers and -node-id must be set together")
	}
	if *peersFlag != "" {
		if policy != accountant.FsyncAlways {
			return config{}, errors.New("group mode always fsyncs (a majority ack IS the durability guarantee); drop -fsync")
		}
		cfg.opts.Peers, err = parsePeers(*peersFlag)
		if err != nil {
			return config{}, err
		}
		if _, ok := cfg.opts.Peers[*nodeID]; !ok {
			return config{}, fmt.Errorf("-peers must include this node's -node-id (%q)", *nodeID)
		}
	}
	return cfg, nil
}

// parsePeers parses "id=host:port,id=host:port,...". Member IDs and
// addresses must both be distinct: a member listed twice under one
// address would send its replication and vote RPCs to itself.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	owner := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=host:port", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers repeats member id %q", id)
		}
		if prev, dup := owner[addr]; dup {
			return nil, fmt.Errorf("-peers gives members %s and %s the same address %q", prev, id, addr)
		}
		peers[id], owner[addr] = addr, id
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers is empty")
	}
	return peers, nil
}

// httpServer wraps a handler with the slow-client timeouts every server
// we expose must carry: a stalled peer may not hold a connection (and
// its goroutine) forever.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// run starts the sequencer and serves until ctx is canceled. started
// (if non-nil) receives the bound address once the listener is up — the
// test hook.
func run(ctx context.Context, args []string, started func(addr string)) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		stopProf, err := startPprof(cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
	}

	cfg.opts.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	group, err := ledgerd.New(cfg.opts)
	if err != nil {
		return err
	}
	// Close flushes and syncs the log — the graceful path that makes the
	// interval/off fsync policies safe across clean shutdowns.
	defer func() { _ = group.Close() }()
	who := "group of one"
	if len(cfg.opts.Peers) > 0 {
		ids := make([]string, 0, len(cfg.opts.Peers))
		for id := range cfg.opts.Peers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		who = "group member " + cfg.opts.NodeID + " of " + strings.Join(ids, ",")
	}
	fmt.Printf("gdpledgerd: %s (ledger dir %s, epoch %s)\n", who, cfg.opts.Dir, group.Epoch())

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("gdpledgerd: listening on %s\n", ln.Addr())
	if started != nil {
		started(ln.Addr().String())
	}

	srv := httpServer(ledgerd.NewHandler(group))
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
		return group.Close()
	}
}

// startPprof serves net/http/pprof on its own listener and mux, like
// gdpserve: the profiling surface never shares a port with the spend
// API. The returned func closes the listener.
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
	fmt.Printf("gdpledgerd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}
