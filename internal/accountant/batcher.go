// Batcher: the one group commit.
//
// Every durable ledger makes an admitted spend durable before the spend
// returns, and shares that fsync among concurrent spenders the same way:
// DurableLedger over its WAL, ledgerd's group over its replicated log.
// A spender queues its call with Do; the first caller that finds no
// batch running runs the whole open batch, its own call and every call
// queued with it (leader/follower), and the others wait. Batches run
// one at a time, in queue order, so the callers' own locks can be
// released for the write and fsync without reordering anything.
package accountant

import "sync"

// Batcher runs queued calls in batches through one function. Safe for
// concurrent use.
type Batcher[T any] struct {
	run func(batch []T)

	mu      sync.Mutex
	cond    sync.Cond // broadcast when a batch has run
	queue   []T       // the open batch
	spare   []T       // the last batch's buffer, reused by the next
	next    uint64    // the open batch's ticket
	done    uint64    // the last batch run
	running bool      // a batch is running
}

// NewBatcher returns a Batcher whose batches run through run, which
// sets each call's outcome. run is never called concurrently with
// itself, and never with the Batcher's lock held.
func NewBatcher[T any](run func(batch []T)) *Batcher[T] {
	b := &Batcher[T]{run: run, next: 1}
	b.cond.L = &b.mu
	return b
}

// Do queues call and returns once the batch holding it has run. If no
// batch is running, the caller runs the open batch itself.
func (b *Batcher[T]) Do(call T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queue = append(b.queue, call)
	ticket := b.next
	for ticket > b.done {
		if b.running {
			b.cond.Wait()
			continue
		}
		batch := b.queue
		b.queue, b.spare = b.spare[:0], nil
		b.next++
		b.running = true
		b.mu.Unlock()
		b.run(batch)
		b.mu.Lock()
		b.running = false
		b.done++
		clear(batch)
		b.spare = batch
		b.cond.Broadcast()
	}
}

// Queued reports how many calls wait in the open batch.
func (b *Batcher[T]) Queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}
