package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// pacer lets the open loop's sender sleep for tens of microseconds.
// time.Sleep cannot: below a millisecond the runtime's idle threads wait in
// epoll with a millisecond-granular timeout, so a 40 µs sleep takes 1 ms
// (measured on this toolchain) and a 50 000 req/s schedule would go out in
// millisecond bursts. A timerfd is an ordinary pollable descriptor: the
// goroutine parks in the netpoller like a connection's reader does and the
// kernel's high-resolution timer wakes it.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the calling goroutine for ns nanoseconds (at least one).
func (p *pacer) sleep(ns int64) error {
	// it_interval stays zero (one shot); a zero it_value would disarm.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(max(ns, 1))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
