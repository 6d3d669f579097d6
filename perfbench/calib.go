package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' cache and memory
// traffic slows the simulator by up to half for minutes at a time, far more
// than any window of runs averages out. Every timed phase is therefore paired
// with a fixed reference computation timed right after it, and host times are
// reported scaled to a host on which the reference takes refNominal:
//
//	reported = measured * refNominal / reference
//
// The reference is code of this benchmark, not of the simulator, so a change
// to the simulator moves the reported time exactly as it moves the measured
// one. The reference is a dependent random walk over a buffer far larger than
// the per-core caches, which tracks the simulator's sensitivity to the other
// tenants better than arithmetic or a cache-sized walk does. Raw times and
// reference times are kept in the result file.
const (
	refWords   = 8 << 20 // 32 MiB of uint32
	refSteps   = 1 << 20
	refNominal = 160 * time.Millisecond
)

// reference is the calibration walk: a single random cycle through
// refWords slots, mapped outside the Go heap so that heap_mb does not see it.
type reference struct {
	mem  []byte
	next []uint32
	at   uint32
}

func newReference() (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference buffer: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)
	sattolo(next, 0x9E3779B97F4A7C15)
	return &reference{mem: mem, next: next}, nil
}

func (r *reference) close() {
	if err := syscall.Munmap(r.mem); err != nil {
		panic(err) // only a bug can unmap a mapping twice
	}
}

// sattolo fills next with a single cycle through all its slots (Sattolo's
// algorithm), so the walk visits every slot before it repeats.
func sattolo(next []uint32, seed uint64) {
	for i := range next {
		next[i] = uint32(i)
	}
	x := seed
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
}

// time walks refSteps dependent steps and returns how long they took.
func (r *reference) time() time.Duration {
	j := r.at
	start := time.Now()
	for i := 0; i < refSteps; i++ {
		j = r.next[j]
	}
	d := time.Since(start)
	r.at = j
	return d
}

// scaled converts a measured host time to the reference host's.
func scaled(d, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}
