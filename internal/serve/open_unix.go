//go:build unix

package serve

import "syscall"

// openNonblock opens a FIFO without waiting for a writer; a regular
// file reads the same with it.
const openNonblock = syscall.O_NONBLOCK
