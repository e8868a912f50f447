// Replication transport: how group members reach each other, plus the
// fault-injection seam the failover tests drive.
//
// The interface mirrors the accountant.WriteSyncer idiom — production
// uses the real thing (HTTP here, *os.File there) and tests wrap it in
// a fault injector that can drop, delay, or partition traffic per
// destination without touching the protocol logic under test.
package ledgerd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrPeerUnreachable wraps transport-level failures (network errors,
// injected drops); the caller treats them as a silent peer.
var ErrPeerUnreachable = errors.New("ledgerd: peer unreachable")

// AppendRequest replicates a log suffix from the primary. Entries are
// raw checksummed WAL frames (base64 on the wire via encoding/json);
// the follower verifies each checksum before fsyncing the bytes
// verbatim into its own log.
type AppendRequest struct {
	Term      uint64   `json:"term"`
	Leader    string   `json:"leader"`
	PrevIndex uint64   `json:"prev_index"`
	PrevTerm  uint64   `json:"prev_term"`
	Commit    uint64   `json:"commit"`
	Entries   [][]byte `json:"entries,omitempty"`
}

// AppendResponse acknowledges (or refuses) a replication batch. A
// refusal with OK=false and no error is the log-consistency backoff
// signal; LogLen hints where the leader should resume. A stale-term
// append never reaches this shape — it is an HTTP 409 "epoch-fenced".
type AppendResponse struct {
	OK     bool   `json:"ok"`
	Term   uint64 `json:"term"`
	LogLen uint64 `json:"log_len"`
}

// VoteRequest asks a peer to durably adopt Term, which is that peer's
// one vote for it. LastLogTerm/LogLen carry the candidate's log
// position for raft's up-to-date check.
type VoteRequest struct {
	Term        uint64 `json:"term"`
	Candidate   string `json:"candidate"`
	LastLogTerm uint64 `json:"last_log_term"`
	LogLen      uint64 `json:"log_len"`
}

// VoteResponse reports whether the peer persisted Term for this
// candidate. Term is the peer's (possibly higher) durable term.
type VoteResponse struct {
	Granted bool   `json:"granted"`
	Term    uint64 `json:"term"`
}

// StateResponse is a peer's durable position — what a candidate reads
// from a majority before bidding for a higher term.
type StateResponse struct {
	Node        string `json:"node"`
	Term        uint64 `json:"term"`
	LastLogTerm uint64 `json:"last_log_term"`
	LogLen      uint64 `json:"log_len"`
	Commit      uint64 `json:"commit"`
	Role        string `json:"role"`
	Leader      string `json:"leader,omitempty"`
}

// GroupTransport carries replication traffic between members.
type GroupTransport interface {
	Append(ctx context.Context, addr string, req AppendRequest) (AppendResponse, error)
	Vote(ctx context.Context, addr string, req VoteRequest) (VoteResponse, error)
	State(ctx context.Context, addr string) (StateResponse, error)
}

// HTTPGroupTransport is the production transport: JSON over the group
// endpoints NewHandler serves.
type HTTPGroupTransport struct {
	// Client overrides the HTTP client (nil uses http.DefaultClient).
	Client *http.Client
}

func (t *HTTPGroupTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPGroupTransport) post(ctx context.Context, addr, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(addr, "/")+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPeerUnreachable, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPeerUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK {
		var we errorWire
		_ = json.Unmarshal(data, &we)
		if we.Code == CodeEpochFenced {
			// The peer's durable term is newer: the sender is fenced. Term
			// rides in the error body so the sender can adopt it.
			return &fencedError{term: we.Term, msg: we.Error}
		}
		return fmt.Errorf("%w: HTTP %d (%s): %s", ErrPeerUnreachable, resp.StatusCode, we.Code, we.Error)
	}
	return json.Unmarshal(data, out)
}

// fencedError carries the fencing peer's term back to a stale sender.
type fencedError struct {
	term uint64
	msg  string
}

func (e *fencedError) Error() string {
	return fmt.Sprintf("ledgerd: fenced by peer at term %d: %s", e.term, e.msg)
}

func (e *fencedError) Is(target error) bool { return target == ErrEpochFenced }

func (t *HTTPGroupTransport) Append(ctx context.Context, addr string, req AppendRequest) (AppendResponse, error) {
	var res AppendResponse
	err := t.post(ctx, addr, "/v1/group/append", req, &res)
	return res, err
}

func (t *HTTPGroupTransport) Vote(ctx context.Context, addr string, req VoteRequest) (VoteResponse, error) {
	var res VoteResponse
	err := t.post(ctx, addr, "/v1/group/vote", req, &res)
	return res, err
}

func (t *HTTPGroupTransport) State(ctx context.Context, addr string) (StateResponse, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(addr, "/")+"/v1/group/state", nil)
	if err != nil {
		return StateResponse{}, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return StateResponse{}, fmt.Errorf("%w: %v", ErrPeerUnreachable, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return StateResponse{}, fmt.Errorf("%w: state HTTP %d: %v", ErrPeerUnreachable, resp.StatusCode, err)
	}
	var res StateResponse
	if err := json.Unmarshal(data, &res); err != nil {
		return StateResponse{}, fmt.Errorf("%w: %v", ErrPeerUnreachable, err)
	}
	return res, nil
}

// FaultTransport wraps a GroupTransport with per-destination drop and
// delay controls — the replication-stream analogue of the WriteSyncer
// fault seam. Outbound only: to partition a node both sides arm their
// own transports (see the tests' partition helper). Safe for concurrent
// use.
type FaultTransport struct {
	Inner GroupTransport

	mu      sync.Mutex
	dropAll bool
	drop    map[string]bool
	delay   time.Duration
}

// Drop starts dropping all traffic to addr.
func (f *FaultTransport) Drop(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.drop == nil {
		f.drop = make(map[string]bool)
	}
	f.drop[addr] = true
}

// DropAll starts dropping all outbound traffic (a fully isolated node).
func (f *FaultTransport) DropAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropAll = true
}

// Delay injects a fixed pause before every delivered call.
func (f *FaultTransport) Delay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// Heal clears every injected fault.
func (f *FaultTransport) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropAll = false
	f.drop = nil
	f.delay = 0
}

// pass decides one call's fate: an error to drop it, else a delay to
// apply before delivery.
func (f *FaultTransport) pass(ctx context.Context, addr string) error {
	f.mu.Lock()
	dropped := f.dropAll || f.drop[addr]
	delay := f.delay
	f.mu.Unlock()
	if dropped {
		return fmt.Errorf("%w: injected drop to %s", ErrPeerUnreachable, addr)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrPeerUnreachable, ctx.Err())
		}
	}
	return nil
}

func (f *FaultTransport) Append(ctx context.Context, addr string, req AppendRequest) (AppendResponse, error) {
	if err := f.pass(ctx, addr); err != nil {
		return AppendResponse{}, err
	}
	return f.Inner.Append(ctx, addr, req)
}

func (f *FaultTransport) Vote(ctx context.Context, addr string, req VoteRequest) (VoteResponse, error) {
	if err := f.pass(ctx, addr); err != nil {
		return VoteResponse{}, err
	}
	return f.Inner.Vote(ctx, addr, req)
}

func (f *FaultTransport) State(ctx context.Context, addr string) (StateResponse, error) {
	if err := f.pass(ctx, addr); err != nil {
		return StateResponse{}, err
	}
	return f.Inner.State(ctx, addr)
}
