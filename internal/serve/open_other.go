//go:build !unix

package serve

// openNonblock is 0 where the platform has no non-blocking open.
const openNonblock = 0
