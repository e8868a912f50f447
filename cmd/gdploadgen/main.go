// Command gdploadgen is an open-loop load generator for gdpserve: it
// fires queries at a fixed target rate on an absolute schedule (tick n
// fires at start + n/QPS whether or not earlier requests have
// returned), so a slow server shows up as high latency and dropped
// ticks instead of the generator politely slowing down to match it —
// the coordinated-omission failure mode of closed-loop harnesses.
//
// Usage:
//
//	gdploadgen -addr 127.0.0.1:8080 -dataset load -qps 200 -duration 10s
//	gdploadgen -hit-ratio 0.9 -mix marginal=0.7,topk=0.2,level=0.1
//	gdploadgen -benchjson load.json
//
// Sessions come in groups pinned to one RNG stream each. Every member
// of a group replays the same deterministic query sequence, so after a
// group's fastest member has answered sequence number s, the other
// members' (stream, seq, query) keys hit the server's response cache —
// with D members per group the steady-state hit fraction approaches
// (D-1)/D, which is how -hit-ratio shapes the served mix without any
// server-side knob. Cache hits serve the prior answer without
// re-debiting the privacy ledger, so the server's budget drains with
// the miss rate, not the request rate.
//
// Latencies land in an HDR-style log-linear histogram (64 sub-buckets
// per power of two, ≤ ~3% relative error) and -benchjson writes the
// run's report as JSON (the CI load smoke asserts on it).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdploadgen:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	base       string // http://host:port
	dataset    string
	qps        float64
	duration   time.Duration
	groups     int     // stream groups
	hitRatio   float64 // target cache-hit fraction → members per group
	mix        queryMix
	levelMax   int
	kMax       int
	streamBase uint64
	seed       uint64
	benchjson  string
	timeout    time.Duration
}

// queryMix is the relative weight of each query kind, normalized to
// sum 1.
type queryMix struct {
	marginal, topk, level float64
}

func parseMix(s string) (queryMix, error) {
	m := queryMix{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return queryMix{}, fmt.Errorf("mix term %q: want kind=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return queryMix{}, fmt.Errorf("mix term %q: bad weight", part)
		}
		switch name {
		case "marginal":
			m.marginal = w
		case "topk":
			m.topk = w
		case "level":
			m.level = w
		default:
			return queryMix{}, fmt.Errorf("mix term %q: unknown kind (want marginal, topk or level)", part)
		}
	}
	total := m.marginal + m.topk + m.level
	if total <= 0 {
		return queryMix{}, fmt.Errorf("mix %q has no positive weight", s)
	}
	m.marginal /= total
	m.topk /= total
	m.level /= total
	return m, nil
}

// membersPerGroup converts the target hit ratio into the replay fan-out
// D: with D members replaying one sequence, roughly (D-1)/D of requests
// hit the response cache.
func membersPerGroup(hitRatio float64) int {
	if hitRatio <= 0 {
		return 1
	}
	if hitRatio >= 1 {
		return 16
	}
	d := int(math.Round(1 / (1 - hitRatio)))
	if d < 1 {
		d = 1
	}
	if d > 16 {
		d = 16
	}
	return d
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("gdploadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "gdpserve address (host:port or http:// URL)")
		dataset  = fs.String("dataset", "load", "dataset to query")
		qps      = fs.Float64("qps", 200, "target request rate (open loop: the schedule never slows down for the server)")
		duration = fs.Duration("duration", 10*time.Second, "run length")
		groups   = fs.Int("sessions", 8, "session stream groups (each pins one RNG stream)")
		hit      = fs.Float64("hit-ratio", 0.5, "target response-cache hit fraction in [0,1]; members per group = round(1/(1-h)), capped at 16")
		mixFlag  = fs.String("mix", "marginal=0.7,topk=0.2,level=0.1", "query-kind weights")
		levelMax = fs.Int("level-max", 3, "queries draw levels in [1, level-max]")
		kMax     = fs.Int("k-max", 8, "top-k queries draw k in [1, k-max]")
		stream   = fs.Uint64("stream-base", 1<<32, "first group's pinned stream (group g uses stream-base + g)")
		seed     = fs.Uint64("seed", 1, "query-sequence seed (same seed + flags = same query schedule)")
		benchout = fs.String("benchjson", "", "write the run's metrics to this JSON file")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		base: *addr, dataset: *dataset, qps: *qps, duration: *duration,
		groups: *groups, hitRatio: *hit, levelMax: *levelMax, kMax: *kMax,
		streamBase: *stream, seed: *seed, benchjson: *benchout, timeout: *timeout,
	}
	if !strings.Contains(cfg.base, "://") {
		cfg.base = "http://" + cfg.base
	}
	cfg.base = strings.TrimRight(cfg.base, "/")
	if cfg.qps <= 0 || math.IsInf(cfg.qps, 0) || math.IsNaN(cfg.qps) {
		return config{}, fmt.Errorf("bad -qps %v", cfg.qps)
	}
	if cfg.qps > 1e6 {
		return config{}, fmt.Errorf("bad -qps %v: the tick interval would be under 1µs", cfg.qps)
	}
	if cfg.duration <= 0 {
		return config{}, fmt.Errorf("bad -duration %v", cfg.duration)
	}
	if cfg.groups < 1 {
		return config{}, fmt.Errorf("bad -sessions %d", cfg.groups)
	}
	if cfg.hitRatio < 0 || cfg.hitRatio > 1 || math.IsNaN(cfg.hitRatio) {
		return config{}, fmt.Errorf("bad -hit-ratio %v", cfg.hitRatio)
	}
	if cfg.levelMax < 1 {
		return config{}, fmt.Errorf("bad -level-max %d", cfg.levelMax)
	}
	if cfg.kMax < 1 {
		return config{}, fmt.Errorf("bad -k-max %d", cfg.kMax)
	}
	var err error
	cfg.mix, err = parseMix(*mixFlag)
	if err != nil {
		return config{}, err
	}
	return cfg, nil
}

// query is one generated request.
type query struct {
	kind  string // "marginal", "topk", "level"
	level int
	side  string
	k     int
}

// member is one HTTP session handle replaying its group's sequence.
// Exactly one in-flight request per member (returned to the ready pool
// only after completion), so its seq counter and query source advance
// strictly in order — the alignment the cache-replay scheme needs.
type member struct {
	session uint64
	qsrc    *rng.Source
}

// nextQuery draws the member's next query. Every member of a group owns
// an identically seeded source and draws the same fields in the same
// order, so position i yields the same query for all of them. All four
// draws happen for every query regardless of kind, keeping the
// sequence alignment draw-count independent.
func (m *member) nextQuery(cfg *config) query {
	u := m.qsrc.Float64()
	level := 1 + m.qsrc.Intn(cfg.levelMax)
	side := "left"
	if m.qsrc.Uint64()&1 == 1 {
		side = "right"
	}
	k := 1 + m.qsrc.Intn(cfg.kMax)
	q := query{level: level, side: side, k: k}
	switch {
	case u < cfg.mix.marginal:
		q.kind = "marginal"
	case u < cfg.mix.marginal+cfg.mix.topk:
		q.kind = "topk"
	default:
		q.kind = "level"
	}
	return q
}

// hdrHist is a log-linear latency histogram: values below 64 map to
// their own bucket; above, each power of two splits into 64 sub-buckets
// (the top 32 are populated), bounding relative error by 1/32.
type hdrHist struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	max    atomic.Uint64
}

const hdrSubBits = 6 // 64 sub-buckets per power of two

func newHdrHist() *hdrHist {
	// 64-bit values need at most (64-hdrSubBits) scaled rows.
	return &hdrHist{counts: make([]atomic.Uint64, (64-hdrSubBits+1)<<hdrSubBits)}
}

func hdrIndex(v uint64) int {
	row := bits.Len64(v) - hdrSubBits
	if row <= 0 {
		return int(v)
	}
	// v>>row lands in [32, 64): the populated upper half of the row.
	return row<<hdrSubBits + int(v>>row)
}

// hdrValue reconstructs a bucket's midpoint value.
func hdrValue(idx int) uint64 {
	row := idx >> hdrSubBits
	sub := uint64(idx & (1<<hdrSubBits - 1))
	if row == 0 {
		return sub
	}
	return sub<<row + 1<<(row-1)
}

func (h *hdrHist) add(v uint64) {
	h.counts[hdrIndex(v)].Add(1)
	h.total.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// percentile returns the value at quantile q in [0,1].
func (h *hdrHist) percentile(q float64) uint64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return hdrValue(i)
		}
	}
	return h.max.Load()
}

// loadReport is the -benchjson report; the CPU-stamp fields say which
// machine the latencies belong to.
type loadReport struct {
	Bench       string  `json:"bench"`
	Dataset     string  `json:"dataset"`
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationS   float64 `json:"duration_s"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Dropped     uint64  `json:"dropped"`
	P50Us       uint64  `json:"p50_us"`
	P95Us       uint64  `json:"p95_us"`
	P99Us       uint64  `json:"p99_us"`
	MaxUs       uint64  `json:"max_us"`
	Groups      int     `json:"sessions"`
	Members     int     `json:"members_per_session"`
	HitTarget   float64 `json:"hit_ratio_target"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Seed        uint64  `json:"seed"`
	UnixMS      int64   `json:"unix_ms"`
}

func run(args []string, out io.Writer) (err error) {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: cfg.timeout}

	// Handles count against the server's open-session cap until they are
	// deleted, so every one this run opened — also when opening stopped
	// part-way — is closed before it returns.
	members, err := openSessions(client, &cfg)
	defer func() {
		if cerr := closeSessions(client, &cfg, members); err == nil {
			err = cerr
		}
	}()
	if err != nil {
		return err
	}
	d := membersPerGroup(cfg.hitRatio)
	fmt.Fprintf(out, "gdploadgen: %d groups x %d members, %.0f qps for %s against %s/%s\n",
		cfg.groups, d, cfg.qps, cfg.duration, cfg.base, cfg.dataset)

	hist := newHdrHist()
	var requests, errors, dropped atomic.Uint64

	ready := make(chan *member, len(members))
	for _, m := range members {
		ready <- m
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for n := 0; ; n++ {
		// From n, not from a running sum of a truncated interval: the
		// rounding error stays under a nanosecond however long the run.
		scheduled := start.Add(time.Duration(float64(n) / cfg.qps * 1e9))
		if scheduled.After(deadline) {
			break
		}
		if wait := time.Until(scheduled); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case m := <-ready:
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := m.nextQuery(&cfg)
				err := fire(client, &cfg, m, q)
				// Latency from the scheduled fire time: queueing delay
				// the open-loop schedule observed is part of the number.
				us := uint64(time.Since(scheduled).Microseconds())
				requests.Add(1)
				if err != nil {
					errors.Add(1)
				}
				hist.add(us)
				ready <- m
			}()
		default:
			// Every member has a request in flight: the server is behind
			// the schedule. Count the tick instead of queueing it — the
			// drop is the signal.
			dropped.Add(1)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	hits, misses := cacheStats(client, &cfg)

	rep := loadReport{
		Bench:       "load",
		Dataset:     cfg.dataset,
		TargetQPS:   cfg.qps,
		AchievedQPS: float64(requests.Load()) / elapsed.Seconds(),
		DurationS:   elapsed.Seconds(),
		Requests:    requests.Load(),
		Errors:      errors.Load(),
		Dropped:     dropped.Load(),
		P50Us:       hist.percentile(0.50),
		P95Us:       hist.percentile(0.95),
		P99Us:       hist.percentile(0.99),
		MaxUs:       hist.max.Load(),
		Groups:      cfg.groups,
		Members:     d,
		HitTarget:   cfg.hitRatio,
		CacheHits:   hits,
		CacheMisses: misses,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        cfg.seed,
		UnixMS:      time.Now().UnixMilli(),
	}
	fmt.Fprintf(out, "gdploadgen: %d requests (%.1f qps achieved, target %.1f), %d errors, %d dropped ticks\n",
		rep.Requests, rep.AchievedQPS, rep.TargetQPS, rep.Errors, rep.Dropped)
	fmt.Fprintf(out, "gdploadgen: latency p50 %dus p95 %dus p99 %dus max %dus\n",
		rep.P50Us, rep.P95Us, rep.P99Us, rep.MaxUs)
	fmt.Fprintf(out, "gdploadgen: server cache %d hits / %d misses\n", hits, misses)

	if cfg.benchjson != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchjson, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "gdploadgen: wrote %s\n", cfg.benchjson)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("no requests completed (all %d ticks dropped?)", rep.Dropped)
	}
	return nil
}

// openSessions opens groups × membersPerGroup session handles; all
// members of group g pin stream streamBase + g and seed identical query
// sources. On failure it returns the handles opened so far with the
// error.
func openSessions(client *http.Client, cfg *config) ([]*member, error) {
	d := membersPerGroup(cfg.hitRatio)
	members := make([]*member, 0, cfg.groups*d)
	for g := 0; g < cfg.groups; g++ {
		stream := cfg.streamBase + uint64(g)
		for i := 0; i < d; i++ {
			body, err := json.Marshal(map[string]uint64{"stream": stream})
			if err != nil {
				return members, err
			}
			var resp struct {
				Session uint64 `json:"session"`
			}
			err = postJSON(client, fmt.Sprintf("%s/v1/datasets/%s/sessions", cfg.base, cfg.dataset), body, &resp)
			if err != nil {
				return members, fmt.Errorf("opening session (group %d member %d): %w", g, i, err)
			}
			members = append(members, &member{
				session: resp.Session,
				qsrc:    rng.New(cfg.seed).Split(uint64(g)),
			})
		}
	}
	return members, nil
}

// closeSessions deletes every handle in members and returns the first
// failure, after trying them all.
func closeSessions(client *http.Client, cfg *config, members []*member) error {
	var first error
	for _, m := range members {
		url := fmt.Sprintf("%s/v1/sessions/%d", cfg.base, m.session)
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err == nil {
			err = doJSON(client, req, nil)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("closing session %d: %w", m.session, err)
		}
	}
	return first
}

// fire issues one query and checks for HTTP success.
func fire(client *http.Client, cfg *config, m *member, q query) error {
	var body []byte
	var path string
	switch q.kind {
	case "marginal":
		body = mustJSON(map[string]any{"level": q.level, "side": q.side})
		path = fmt.Sprintf("%s/v1/sessions/%d/marginal", cfg.base, m.session)
	case "topk":
		body = mustJSON(map[string]any{"level": q.level, "side": q.side, "k": q.k})
		path = fmt.Sprintf("%s/v1/sessions/%d/topk", cfg.base, m.session)
	default:
		body = mustJSON(map[string]any{"level": q.level})
		path = fmt.Sprintf("%s/v1/sessions/%d/level", cfg.base, m.session)
	}
	return postJSON(client, path, body, nil)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// postJSON POSTs body and decodes a 2xx response into dst (when
// non-nil); non-2xx statuses are errors carrying the server's error
// body.
func postJSON(client *http.Client, url string, body []byte, dst any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, dst)
}

// doJSON sends req under postJSON's response rules.
func doJSON(client *http.Client, req *http.Request, dst any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return fmt.Errorf("%s: %s: %s", req.URL, resp.Status, strings.TrimSpace(string(blob)))
	}
	if dst == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// cacheStats fetches the dataset's response-cache counters; a failed
// fetch reports zeros rather than failing the run.
func cacheStats(client *http.Client, cfg *config) (hits, misses uint64) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/datasets/%s/budget", cfg.base, cfg.dataset))
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var body struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, 0
	}
	return body.Cache.Hits, body.Cache.Misses
}
