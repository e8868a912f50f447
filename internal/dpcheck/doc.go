// Package dpcheck is the exact privacy audit of the release pipeline; it
// has no code outside its tests. On a dozen graphs of at most 6 × 6 the
// tests enumerate every neighbour D2 = D1 ∖ G_i of Definition 3 under
// each core.GroupModel, on D1's balanced tree, and check that the exact
// loss of the shift it causes stays within the label of every release
// the pipeline and the serving layer ship: the Gaussian hockey-stick δ at
// the label's ε (Balle & Wang 2018), ‖s‖₁/b for Laplace noise and
// ‖s‖₁·ln(1/α) for geometric noise. A χ² test ties the scale a release
// reports to the integers it draws, and a report-only test prices
// Phase 1's cuts exactly over the same neighbours.
package dpcheck
