package ledgerd

// QueuedSpends reports how many spend calls wait in the queue for a
// batch to decide them.
func (g *Group) QueuedSpends() int { return g.spends.Queued() }
