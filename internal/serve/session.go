package serve

import (
	"fmt"
	"strconv"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	querytail "repro/internal/query"
	"repro/internal/release"
	"repro/internal/rng"
)

// Query kinds, folded into every per-query stream derivation so queries
// of different shapes can never share a draw.
const (
	queryKindView = iota + 1
	queryKindMarginal
	queryKindTopK
)

// query is one served query's identity: its kind and its parameters. A
// level view names no side and no k, and a marginal no k; zero values
// stand in for them in the cache key and the stream derivation. The
// HTTP routes and the Session methods build one and hand it to
// Session.answer.
type query struct {
	kind, level int
	side        bipartite.Side
	k           int
}

// result is a query's answer, in the field its kind fills: a level
// view's view, a marginal's marginals, a top-k's groups.
type result struct {
	view      LevelView
	marginals []float64
	groups    []int
}

// NewSession returns a session on the next auto-assigned stream id.
// Auto sessions derive their noise from a stream domain disjoint from
// SessionAt's, so no pinned id can ever land on an auto session's
// stream (and vice versa); their ids are unique per dataset but depend
// on allocation order, so pin ids with SessionAt when replayability
// matters.
func (d *Dataset) NewSession() *Session {
	return d.session(d.nextID.Add(1)-1, domainAutoSessions, false)
}

// SessionAt returns a session on a pinned stream id. Two pinned
// sessions with the same stream id (across restarts, across replicas
// with one seed) draw identical noise for identical query sequences
// against identical data — the replay contract; re-ingesting different
// data under the same name re-keys the streams (see fingerprintTree).
// Sharing a stream id leaks nothing beyond the replay itself: queries
// that differ in kind or parameters derive disjoint noise streams (see
// querySource). Re-running a sequence costs budget again only when the
// key has left the response cache: replays resident in the dataset's
// cache are served without a debit — their DP cost was already paid —
// while evicted or never-cached keys recompute and debit (cache.go).
func (d *Dataset) SessionAt(stream uint64) *Session {
	return d.session(stream, domainSessions, true)
}

// session constructs a handle on one (domain, stream id) noise stream.
func (d *Dataset) session(stream, domain uint64, pinned bool) *Session {
	eng, err := release.NewEngine(d.reg.cfg.Model, d.reg.cfg.Calib, d.strat.Mech)
	if err != nil {
		// withDefaults and datasetStrategy pre-validated the engine
		// configuration.
		panic(fmt.Sprintf("serve: engine config became invalid: %v", err))
	}
	// The data fingerprint joins the chain so a re-ingested name never
	// replays a previous ingest's noise against different data.
	return &Session{
		ds:     d,
		stream: stream,
		domain: domain,
		pinned: pinned,
		src:    d.reg.streamFor(d.name, domain, stream).Split(d.print),
		eng:    eng,
	}
}

// Session is one tenant's query handle: a reusable release engine, a
// private pre-split RNG stream, and the scratch buffers of the query
// tail — the per-query stream chain, the ledger label, and the
// marginal/top-k result vectors. Everything a steady-state query touches
// is retained here, so after warm-up a Marginal or TopK performs zero
// heap allocations end to end. A marginal or top-k query leaves one
// noise-chunk window in the engine (release.Engine.Marginal), not the
// level's cell histogram; only a level view keeps a histogram buffer.
// A Session is NOT safe for concurrent use — open one per goroutine;
// sessions of one dataset may run fully in parallel.
type Session struct {
	ds     *Dataset
	stream uint64
	domain uint64
	pinned bool
	seq    uint64
	src    *rng.Source
	eng    *release.Engine

	// qsrc and qsub are the per-query stream-derivation scratch: the
	// Split chain collapses through them in place (rng.Source.SplitTo)
	// instead of allocating a Source per link.
	qsrc, qsub rng.Source
	// label is the ledger-label assembly buffer (accountant.SpendBytes).
	label []byte
	// marginals, topk and topkOut back the slices Marginal and TopK
	// return on a cache hit (a computed marginal is the engine's); all
	// are overwritten by the session's next query.
	marginals []float64
	topk      querytail.TopKScratch
	topkOut   []int
}

// useCache reports whether this session's queries go through the
// dataset's response cache. Only pinned sessions participate: an auto
// session's stream id is unique for the dataset's lifetime and its seq
// only grows, so its keys can never be replayed — caching them would
// spend LRU capacity (and, for level views, whole retained histograms)
// on entries that evict the pinned replays the cache exists for.
func (s *Session) useCache() bool { return s.pinned && s.ds.cache.enabled() }

// cacheKeyFor is the query's full identity in the dataset's response
// cache — the same tuple the per-query stream derivation folds in, so
// equal keys imply byte-identical answers. answer narrows level and k
// only after check has bounded them.
func (s *Session) cacheKeyFor(q query) cacheKey {
	return cacheKey{
		domain: s.domain,
		stream: s.stream,
		seq:    s.seq,
		kind:   uint8(q.kind),
		level:  int32(q.level),
		side:   uint8(q.side),
		k:      int32(q.k),
	}
}

// Dataset returns the session's dataset.
func (s *Session) Dataset() *Dataset { return s.ds }

// Stream returns the session's stream id. Pinned and auto sessions
// number their streams independently (disjoint derivation domains), so
// ids are only comparable between sessions of the same kind.
func (s *Session) Stream() uint64 { return s.stream }

// Pinned reports whether the session's stream id was pinned by the
// caller (SessionAt) — the replayable kind — or auto-assigned.
func (s *Session) Pinned() bool { return s.pinned }

// Seq returns the next query sequence number.
func (s *Session) Seq() uint64 { return s.seq }

// LevelView is one privilege tier's served answer: the noisy
// association count and the noisy cell histogram of the level — the
// serving analogue of release.View.
type LevelView struct {
	Level int               `json:"level"`
	Count core.LevelRelease `json:"count"`
	// Cells points into the session's reusable buffer: it is valid
	// until the session's next query (serialize or copy to retain).
	Cells *core.CellRelease `json:"cells"`
}

// advance consumes the session's next query slot: its seq number and
// the parent stream's one draw, the fork point of the slot's Split
// chain. A cache hit consumes its slot with this alone; querySource
// derives the chain from what it returns.
func (s *Session) advance() (rng.Fork, uint64) {
	seq := s.seq
	s.seq++
	return s.src.Fork(), seq
}

// querySource advances the session to its next per-query stream.
// Every query owns a Split chain keyed by its sequence number AND its
// full identity — one Split level per parameter, so distinct tuples
// take distinct paths through the stream tree with no hashing step to
// collide — and a query's draws depend only on (seed, dataset, stream,
// seq, kind, level, side, k), never on other sessions. Without the
// identity terms, two sessions pinned to one stream could issue
// different queries at the same seq, draw the same underlying variates,
// and let a client difference the responses to cancel the noise.
// The chain collapses in place through the session's scratch Source
// (values identical to the allocating Split chain); the returned
// pointer is invalidated by the session's next query.
func (s *Session) querySource(q query) *rng.Source {
	fork, seq := s.advance()
	src := &s.qsrc
	fork.StreamTo(src, seq)
	src.SplitTo(src, uint64(q.kind))
	src.SplitTo(src, uint64(q.level))
	src.SplitTo(src, uint64(q.side))
	src.SplitTo(src, uint64(q.k))
	return src
}

// spend debits the ledger, labeling the op with this session's stream
// and the query's sequence number. It is the gate in front of every
// noise draw: on ErrBudgetExceeded nothing has been sampled and the
// sequence number has not advanced. Everything the release engine
// could reject (level, side, k, the per-query params) is validated
// before spend is called; in the unreachable case of an engine error
// after a successful spend, the serving layer fails closed — the
// budget and the seq slot stay consumed, and nothing is refunded for a
// draw that may already have happened.
func (s *Session) spend(what string, level int, cost dp.Params) error {
	// Pinned ("s") and auto ("a") sessions number streams in disjoint
	// domains; the prefix keeps their audit labels unambiguous. The
	// label is assembled in the session's scratch and copied into the
	// ledger's arena — no per-query string allocation. Non-default
	// strategies lead with "strategy=<name>/" so the trail records what
	// plan answered; the default's labels stay byte-identical to the
	// pre-strategy serving layer.
	prefix := byte('s')
	if !s.pinned {
		prefix = 'a'
	}
	b := append(s.label[:0], s.ds.labelPrefix...)
	b = append(b, prefix)
	b = strconv.AppendUint(b, s.stream, 10)
	b = append(b, "/q"...)
	b = strconv.AppendUint(b, s.seq, 10)
	b = append(b, '/')
	b = append(b, what...)
	b = append(b, "/level"...)
	b = strconv.AppendInt(b, int64(level), 10)
	s.label = b
	if err := s.ds.ledger.SpendBytes(b, cost); err != nil {
		return fmt.Errorf("serve: %s on %q: %w", what, s.ds.name, err)
	}
	return nil
}

// check validates q before any budget is spent: its level, then a
// marginal's or top-k's side, then a top-k's k.
func (s *Session) check(q query) error {
	n, err := s.ds.tree.NumSideGroups(q.level)
	if err != nil || q.kind == queryKindView {
		return err
	}
	if !q.side.Valid() {
		return fmt.Errorf("serve: invalid side %v", q.side)
	}
	if q.kind == queryKindTopK && (q.k <= 0 || q.k > n) {
		return fmt.Errorf("serve: k=%d outside [1,%d]", q.k, n)
	}
	return nil
}

// answer is the one path every served query takes. It checks q, and on
// a session without the cache computes it. Otherwise it runs the
// cache's singleflight round on q's full identity: the owner computes
// (spending) and publishes the answer into the entry before waking the
// waiters; a waiter waits, retrying if the owner aborted, and on a hit
// consumes the seq slot and advances the session stream exactly as
// computing would have, WITHOUT a ledger debit, and returns the entry
// too. A hit's marginals and groups are the entry's own, which the
// caller must not modify; a hit's view is rehydrated through the
// session's engine buffer.
func (s *Session) answer(q query) (result, *cacheEntry, error) {
	if err := s.check(q); err != nil {
		return result{}, nil, err
	}
	if !s.useCache() {
		r, err := s.compute(q)
		return r, nil, err
	}
	c, key := s.ds.cache, s.cacheKeyFor(q)
	for {
		e, owner := c.acquire(key)
		if owner {
			r, err := s.compute(q)
			if err != nil {
				c.abort(e)
				return result{}, nil, err
			}
			e.marginals = append([]float64(nil), r.marginals...)
			e.topk = append([]int(nil), r.groups...)
			if r.view.Cells != nil {
				e.view = &cachedView{count: r.view.Count, cells: release.CloneCellRelease(*r.view.Cells)}
			}
			c.complete(e)
			return r, nil, nil
		}
		<-e.ready
		if !e.ok {
			continue // owner aborted; retry (one waiter becomes owner)
		}
		s.advance()
		r := result{marginals: e.marginals, groups: e.topk}
		if e.view != nil {
			r.view = LevelView{Level: q.level, Count: e.view.count, Cells: s.eng.LoadCells(&e.view.cells)}
		}
		return r, e, nil
	}
}

// compute is the ledgered Phase-2 path of every query: it spends q's
// cost — a level view's count and histogram are two mechanism
// invocations, 2·PerQuery as one op; a marginal or top-k is one
// PerQuery histogram draw — and then draws q's answer from q's stream.
func (s *Session) compute(q query) (result, error) {
	pq := s.ds.reg.cfg.PerQuery
	what, cost := "marginal", pq
	switch q.kind {
	case queryKindView:
		what, cost = "view", dp.Params{Epsilon: 2 * pq.Epsilon, Delta: 2 * pq.Delta}
	case queryKindTopK:
		what = "topk"
	}
	if err := s.spend(what, q.level, cost); err != nil {
		return result{}, err
	}
	src := s.querySource(q)
	if q.kind == queryKindView {
		src.SplitTo(&s.qsub, 0)
		count, err := s.eng.Count(s.ds.tree, q.level, pq, &s.qsub)
		if err != nil {
			return result{}, err
		}
		src.SplitTo(&s.qsub, 1)
		cells, err := s.eng.Cells(s.ds.tree, q.level, pq, &s.qsub)
		if err != nil {
			return result{}, err
		}
		// A tier receives the publishable form: the exact count and the
		// error rate computed from it stay with the curator. The cached
		// view is built from this one, so replays are stripped too.
		return result{view: LevelView{Level: q.level, Count: count.OmitTrue(), Cells: cells}}, nil
	}
	m, err := s.eng.Marginal(s.ds.tree, q.level, q.side, pq, src)
	if err != nil || q.kind == queryKindMarginal {
		return result{marginals: m}, err
	}
	groups, err := querytail.TopKOfMarginalsInto(&s.topk, m, q.k)
	return result{groups: groups}, err
}

// ReleaseLevel serves a level view: the εg-group-DP association count
// and the level's noisy cell histogram. It debits 2·PerQuery (count +
// histogram are two mechanism invocations) as one atomic ledger op.
// A response-cache hit on the full query identity returns the
// byte-identical prior answer without debiting the ledger (cache.go).
func (s *Session) ReleaseLevel(level int) (LevelView, error) {
	r, _, err := s.answer(query{kind: queryKindView, level: level})
	return r.view, err
}

// Marginal serves the per-side-group association counts of a level: one
// fresh PerQuery histogram draw, post-processed (free) into row or
// column sums. The returned slice points into the session's reusable
// scratch — like LevelView.Cells, it is valid until the session's next
// query; copy to retain.
func (s *Session) Marginal(level int, side bipartite.Side) ([]float64, error) {
	r, hit, err := s.answer(query{kind: queryKindMarginal, level: level, side: side})
	if hit != nil { // copy into the session's reusable scratch
		s.marginals = append(s.marginals[:0], r.marginals...)
		return s.marginals, nil
	}
	return r.marginals, err
}

// TopK serves the k heaviest side groups of a level according to one
// fresh PerQuery histogram draw (heavy-hitter identification with the
// ranking as free post-processing). The returned slice points into the
// session's reusable scratch — valid until the session's next query;
// copy to retain.
func (s *Session) TopK(level int, side bipartite.Side, k int) ([]int, error) {
	r, hit, err := s.answer(query{kind: queryKindTopK, level: level, side: side, k: k})
	if hit != nil { // copy into the session's reusable scratch
		s.topkOut = append(s.topkOut[:0], r.groups...)
		return s.topkOut, nil
	}
	return r.groups, err
}
