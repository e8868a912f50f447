package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/ledgerd"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Layer probes: each layer's public functions called directly with the
// inputs the served path gives them, timed from the harness. They stand
// in for spans inside the program (a later change) and give every layer
// a before-number even where no end-to-end workload reaches it yet.

// step is one timed call of an interleaved probe; then, when set, runs
// untimed after it, for calls that must undo what they did before they
// can repeat.
type step struct {
	run  func() error
	then func() error
}

// timeInterleaved runs the steps in turn, n times over, and returns each
// step's durations in µs. Steps whose times are compared or subtracted
// go into one call: the box drifts over seconds, and alternating puts
// every slow spell on all of them alike.
func timeInterleaved(n int, steps ...step) ([][]float64, error) {
	out := make([][]float64, len(steps))
	for i := 0; i < n; i++ {
		for j, st := range steps {
			start := time.Now()
			err := st.run()
			d := time.Since(start)
			if err == nil && st.then != nil {
				err = st.then()
			}
			if err != nil {
				return nil, err
			}
			out[j] = append(out[j], float64(d.Nanoseconds())/1e3)
		}
	}
	return out, nil
}

// timeEach runs f n times and returns each call's duration in µs.
func timeEach(n int, f func() error) ([]float64, error) {
	us, err := timeInterleaved(n, step{run: f})
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// timeBatches is timeEach for calls too short for one clock pair: it
// times batches of size calls and returns the per-call µs of each batch.
func timeBatches(batches, size int, f func() error) ([]float64, error) {
	us, err := timeEach(batches, func() error {
		for i := 0; i < size; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	for i := range us {
		us[i] /= float64(size)
	}
	return us, err
}

// kernel is the Phase-2 probe state: one engine, stream and scratch
// reused across calls exactly as a serving session reuses its own.
type kernel struct {
	tree      *hierarchy.Tree
	eng       *release.Engine
	src       *rng.Source
	noise     []float64
	marginals []float64
	topk      query.TopKScratch
	cells     *core.CellRelease
}

func newKernel(reg *serve.Registry, tree *hierarchy.Tree, seed uint64) (*kernel, error) {
	cfg := reg.Config()
	eng, err := release.NewEngine(cfg.Model, cfg.Calib, cfg.Mechanism)
	if err != nil {
		return nil, err
	}
	return &kernel{tree: tree, eng: eng, src: rng.New(seed ^ 0x9e3779b97f4a7c15)}, nil
}

func (k *kernel) releaseCells(level int) (err error) {
	k.cells, err = k.eng.Cells(k.tree, level, perQuery, k.src)
	return err
}

func (k *kernel) releaseCount(level int) error {
	_, err := k.eng.Count(k.tree, level, perQuery, k.src)
	return err
}

// normals draws as many Gaussians as the last released level has cells,
// at its scale: the fill releaseCells just ran, alone.
func (k *kernel) normals() error {
	n := len(k.cells.Counts)
	if cap(k.noise) < n {
		k.noise = make([]float64, n)
	}
	k.src.NormalsSigma(k.noise[:n], k.cells.Sigma)
	return nil
}

func (k *kernel) marginal() (err error) {
	k.marginals, err = query.MarginalCountsInto(k.marginals, *k.cells, bipartite.Left)
	return err
}

func (k *kernel) topK() error {
	_, err := query.TopKGroupsInto(&k.topk, *k.cells, bipartite.Left, 10)
	return err
}

// probeKernel times the release, noise and query-tail layers at the
// finest and the mid level.
func probeKernel(k *kernel, m map[string]metric) error {
	const cells, normals, marginal, topK, count = 0, 1, 2, 3, 4
	med := map[int][]float64{}
	for _, lv := range []struct{ level, n int }{{0, 60}, {3, 2000}} {
		// normals, marginal and topK read the release before them.
		us, err := timeInterleaved(lv.n,
			step{run: func() error { return k.releaseCells(lv.level) }},
			step{run: k.normals}, step{run: k.marginal}, step{run: k.topK},
			step{run: func() error { return k.releaseCount(lv.level) }})
		if err != nil {
			return fmt.Errorf("kernel probe, level %d: %w", lv.level, err)
		}
		for _, series := range us {
			med[lv.level] = append(med[lv.level], median(series))
		}
	}
	cells0, err := k.tree.NumCells(0)
	if err != nil {
		return err
	}
	l0, l3 := med[0], med[3]
	m["release.cells_us.l0"] = metric{l0[cells], "us"}
	m["release.cells_us.l3"] = metric{l3[cells], "us"}
	m["release.count_us"] = metric{l3[count], "us"}
	m["core.self_us.l0"] = metric{l0[cells] - l0[normals], "us"}
	m["core.cells_per_s"] = metric{float64(cells0) / l0[cells] * 1e6, "1/s"}
	m["rng.normals_ns_per_sample"] = metric{l0[normals] * 1e3 / float64(cells0), "ns"}
	m["query.marginal_us.l0"] = metric{l0[marginal], "us"}
	m["query.marginal_us.l3"] = metric{l3[marginal], "us"}
	m["query.topk_us.l3"] = metric{l3[topK], "us"}
	return nil
}

// spendLabel is a representative audit label, the shape sessions build.
var spendLabel = []byte("s1000/q4711/marginal/level3")

// walCounts counts what a durable ledger asks of its file.
type walCounts struct {
	bytes, fsyncs atomic.Int64
}

type countingWriter struct {
	f *os.File
	c *walCounts
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.c.bytes.Add(int64(n))
	return n, err
}

func (w countingWriter) Sync() error {
	w.c.fsyncs.Add(1)
	return w.f.Sync()
}

func (w countingWriter) Close() error { return w.f.Close() }

// openCounting is a DurableOptions.OpenWriter that opens the file the
// way the ledger's default does and counts its writes and fsyncs.
func (c *walCounts) openCounting(path string) (accountant.WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return countingWriter{f: f, c: c}, nil
}

// The WAL probe runs walBlocks blocks of walBlockSpends spends per
// spender: 900 records in all, below the 1024-record compaction
// threshold, so the byte and fsync counts are those of appends alone.
const (
	walBlocks      = 3
	walBlockSpends = 100
)

// probeLedgers times one spend on each accounting backend and counts
// the WAL's I/O per spend with one and with two concurrent spenders.
func probeLedgers(scratch string, m map[string]metric) error {
	// A refused or failed spend is counted, not fatal: the count is the
	// layer's failed-operations metric, and the run reports incorrect.
	var failed atomic.Int64
	counted := func(err error) error {
		if err != nil {
			failed.Add(1)
		}
		return nil
	}

	mem, err := accountant.NewLedger(totalBudget)
	if err != nil {
		return err
	}
	memUS, err := timeBatches(200, 200, func() error { return counted(mem.SpendBytes(spendLabel, perQuery)) })
	if err != nil {
		return fmt.Errorf("mem ledger: %w", err)
	}
	m["accountant.mem.spend_us"] = metric{median(memUS), "us"}

	var counts walCounts
	wal, err := accountant.OpenDurableLedger(totalBudget, filepath.Join(scratch, "probe.wal"),
		accountant.DurableOptions{OpenWriter: counts.openCounting})
	if err != nil {
		return fmt.Errorf("wal ledger: %w", err)
	}
	defer wal.Close()
	spend := func() error { return counted(wal.SpendBytes(spendLabel, perQuery)) }
	// One spender and two concurrent spenders take turns in blocks, so a
	// slow spell of the disk lands on both.
	var oneUS, twoUS []float64
	var oneIO, twoIO struct{ bytes, fsyncs int64 }
	for block := 0; block < walBlocks; block++ {
		bytes0, fsyncs0 := counts.bytes.Load(), counts.fsyncs.Load()
		us, err := timeEach(walBlockSpends, spend)
		if err != nil {
			return fmt.Errorf("wal ledger: %w", err)
		}
		oneUS = append(oneUS, us...)
		bytes1, fsyncs1 := counts.bytes.Load(), counts.fsyncs.Load()
		var wg sync.WaitGroup
		var pair [2][]float64
		for i := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pair[i], _ = timeEach(walBlockSpends, spend) // spend never returns an error: failures are counted
			}()
		}
		wg.Wait()
		twoUS = append(append(twoUS, pair[0]...), pair[1]...)
		oneIO.bytes += bytes1 - bytes0
		oneIO.fsyncs += fsyncs1 - fsyncs0
		twoIO.bytes += counts.bytes.Load() - bytes1
		twoIO.fsyncs += counts.fsyncs.Load() - fsyncs1
	}
	one, two := median(oneUS), median(twoUS)
	const oneSpends, twoSpends = walBlocks * walBlockSpends, 2 * walBlocks * walBlockSpends
	m["accountant.wal.spend_us"] = metric{one, "us"}
	m["accountant.wal.lock_wait_us"] = metric{two - one, "us"}
	m["accountant.wal.fsyncs_per_spend"] = metric{float64(oneIO.fsyncs) / oneSpends, "count"}
	m["accountant.wal.bytes_per_spend"] = metric{float64(oneIO.bytes) / oneSpends, "B"}
	m["accountant.wal.fsyncs_per_spend.c2"] = metric{float64(twoIO.fsyncs) / twoSpends, "count"}
	m["accountant.wal.bytes_per_spend.c2"] = metric{float64(twoIO.bytes) / twoSpends, "B"}

	// The sequencer path, in-process and with fsync off: the remote
	// client, the sequencer's HTTP front end and its service, each
	// without the network and the disk the WAL probe above already
	// prices.
	svc, err := ledgerd.New(ledgerd.Options{Dir: filepath.Join(scratch, "sequencer"), Fsync: accountant.FsyncOff})
	if err != nil {
		return fmt.Errorf("sequencer: %w", err)
	}
	defer svc.Close()
	att, err := svc.Attach("direct", totalBudget)
	if err != nil {
		return fmt.Errorf("sequencer attach: %w", err)
	}
	opSeq := 0
	serviceUS, err := timeEach(500, func() error {
		opSeq++
		_, err := svc.Spend("direct", att.Epoch, fmt.Sprintf("probe-%d", opSeq), string(spendLabel), perQuery)
		return counted(err)
	})
	if err != nil {
		return fmt.Errorf("sequencer spend: %w", err)
	}
	transport := &handlerTransport{handler: ledgerd.NewHandler(svc)}
	remote, err := accountant.OpenRemoteLedger("http://sequencer.invalid", "remote", totalBudget,
		accountant.RemoteOptions{Client: &http.Client{Transport: transport}})
	if err != nil {
		return fmt.Errorf("remote ledger: %w", err)
	}
	defer remote.Close()
	transport.handlerUS = transport.handlerUS[:0]
	remoteUS, err := timeEach(500, func() error { return counted(remote.SpendBytes(spendLabel, perQuery)) })
	if err != nil {
		return fmt.Errorf("remote ledger: %w", err)
	}
	m["ledgerd.service.spend_us"] = metric{median(serviceUS), "us"}
	m["ledgerd.http.self_us"] = metric{median(transport.handlerUS) - median(serviceUS), "us"}
	m["accountant.remote.spend_us"] = metric{median(remoteUS), "us"}
	m["accountant.spend_failed"] = metric{float64(failed.Load()), "count"}
	return nil
}

// handlerTransport is an http.RoundTripper that calls a handler
// in-process and records how long each call spent inside it.
type handlerTransport struct {
	handler   http.Handler
	handlerUS []float64
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.handler.ServeHTTP(rec, req)
	t.handlerUS = append(t.handlerUS, float64(time.Since(start).Nanoseconds())/1e3)
	return rec.Result(), nil
}

// drainTwice reads an edge source end to end twice, as the two-pass
// build does, and returns the edges decoded.
func drainTwice(src bipartite.EdgeSource) (int, error) {
	buf := make([]bipartite.Edge, bipartite.DefaultChunkEdges)
	edges := 0
	for pass := 0; pass < 2; pass++ {
		if err := src.Reset(); err != nil {
			return 0, err
		}
		err := bipartite.ForEachChunk(src, buf, func(chunk []bipartite.Edge) error {
			edges += len(chunk)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return edges, nil
}

func heapAllocMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ingestReps is how often each ingest-side probe runs; its median is
// reported.
const ingestReps = 3

// probeIngest times the write side layer by layer: codec decode, the
// hierarchy build under the balanced and the exponential-mechanism
// plan, the registry's AddDatasetWith, and the HTTP upload around it.
func probeIngest(in *inputs, e *env, m map[string]metric) error {
	newSource := func() (bipartite.EdgeSource, error) {
		return bipartite.NewBinaryEdgeSource(bytes.NewReader(in.blob))
	}
	decodeUS, err := timeEach(ingestReps, func() error {
		src, err := newSource()
		if err != nil {
			return err
		}
		n, err := drainTwice(src)
		if err == nil && n != 2*in.spec.NumEdges {
			err = fmt.Errorf("decoded %d edges in two passes, want %d", n, 2*in.spec.NumEdges)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	m["bipartite.decode_edges_per_s"] = metric{2 * float64(in.spec.NumEdges) / median(decodeUS) * 1e6, "1/s"}

	// The two plans are built alternately, and so are the bare
	// AddDatasetWith and the upload around it: each pair is reported as
	// a difference.
	var tree *hierarchy.Tree
	builder := hierarchy.NewBuilder()
	build := func(private bool) func() error {
		return func() error {
			var bisector partition.Bisector = partition.BalancedBisector{}
			if private {
				b, err := partition.NewExpMechBisector(phase1Epsilon, rng.New(in.seed))
				if err != nil {
					return err
				}
				bisector = b
			}
			src, err := newSource()
			if err != nil {
				return err
			}
			tree, err = builder.BuildFromEdges(src, hierarchy.Options{Rounds: buildRounds, Bisector: bisector, Workers: 1})
			return err
		}
	}
	before := heapAllocMB()
	builds, err := timeInterleaved(ingestReps, step{run: build(false)}, step{run: build(true)})
	if err != nil {
		return fmt.Errorf("build probe: %w", err)
	}
	builder.Close()
	builder = nil // its scratch must not count as tree
	treeMB := heapAllocMB() - before
	runtime.KeepAlive(tree)
	balanced, expmech := median(builds[0]), median(builds[1])
	m["hierarchy.build_ms"] = metric{balanced / 1e3, "ms"}
	m["partition.expmech_ms"] = metric{(expmech - balanced) / 1e3, "ms"}
	m["hierarchy.edges_per_s"] = metric{float64(in.spec.NumEdges) / balanced * 1e6, "1/s"}
	m["hierarchy.tree_heap_mb"] = metric{treeMB, "MB"}

	remove := func() error { return e.reg.RemoveDataset("probe") }
	c := newCaller(e.handler)
	ingests, err := timeInterleaved(ingestReps,
		step{run: func() error {
			src, err := newSource()
			if err != nil {
				return err
			}
			_, err = e.reg.AddDatasetWith("probe", src, serve.DatasetOptions{})
			return err
		}, then: remove},
		step{run: func() error { return ingest(c, "probe", in) }, then: remove})
	if err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	add, upload := median(ingests[0]), median(ingests[1])
	m["serve.add_dataset_ms"] = metric{add / 1e3, "ms"}
	m["serve_http.spool_ms"] = metric{(upload - add) / 1e3, "ms"}
	return nil
}

// loopbackOps bounds the socket probe per kind of operation.
const (
	loopbackQueryOps  = 300
	loopbackIngestOps = 2
)

// probeLoopback repeats the workload's operation over a real 127.0.0.1
// keep-alive connection to the same handler and returns the median
// round trip in µs. It is a diagnostic for what the in-process driver
// leaves out; nothing gated depends on it.
func probeLoopback(w *workload, in *inputs, e *env) (float64, error) {
	srv := httptest.NewServer(e.handler)
	defer srv.Close()
	client := srv.Client()
	post := func(path string, body []byte, wantStatus int) ([]byte, error) {
		resp, err := client.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != wantStatus {
			return nil, fmt.Errorf("loopback %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		}
		return data, nil
	}
	if w.kind == kindIngest {
		us, err := timeInterleaved(loopbackIngestOps, step{
			run: func() error {
				_, err := post("/v1/datasets/probe", in.blob, http.StatusCreated)
				return err
			},
			then: func() error { return e.reg.RemoveDataset("probe") },
		})
		if err != nil {
			return 0, err
		}
		return median(us[0]), nil
	}
	// A replay of the leader's stream hits the cache for its first
	// replayLen answers; any other stream misses.
	stream := uint64(3000)
	if w.kind == kindHitReplay {
		stream = leaderStream
	}
	id, err := openSession(newCaller(e.handler), stream)
	if err != nil {
		return 0, err
	}
	path := fmt.Sprintf("/v1/sessions/%d/%s", id, w.endpoint)
	us, err := timeEach(loopbackQueryOps, func() error {
		data, err := post(path, w.body, http.StatusOK)
		if err != nil {
			return err
		}
		return w.checkQuery(http.StatusOK, data, false)
	})
	return median(us), err
}
