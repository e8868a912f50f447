package ledgerd

// QueuedSpends reports how many spend calls wait in the queue for a
// leader to decide them.
func (g *Group) QueuedSpends() int {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	return len(g.queue)
}
