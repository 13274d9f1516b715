package main

import (
	"runtime"
	"slices"
	"strconv"
	"time"
)

// The host this benchmark runs on is a slice of a shared machine whose
// speed drifts by 20–40% over tens of seconds, CPU time with it: a
// fixed sort timed back to back read from 0.59 to 0.89 s within 90 s
// on a 2-vCPU Intel Xeon VM, and the median dense-peel request of a
// 50-second run from 0.61 to 0.93 s within ten minutes.  That drift,
// not the program, would set the spread of any raw timing between two
// runs.  So the timed loop brackets every request, and every set-up,
// with a fixed calibration kernel that uses none of the program's
// code, and scales each time by how much faster or slower than
// nominalCalSeconds the kernel ran just before and just after it.  A
// reported time is therefore the time the request would take on a
// host that runs the kernel in nominalCalSeconds.  A change to the
// program moves the request but not the kernel; a change in host speed
// moves both, though often the request more than the kernel, so the
// scaling narrows the spread between runs (about halves it on
// dense-peel) without removing it.  The unscaled times and the
// kernel's own median are printed beside the scaled ones.

// nominalCalSeconds is about the kernel's median time on that VM when
// the host is quiet, so scaled times stay close to the wall times seen
// then.
const nominalCalSeconds = 0.085

// calibrator owns the kernel's inputs and buffers, built once so that
// the kernel allocates nothing.
type calibrator struct {
	text  []byte            // decimal numbers, scanned as a parser does
	keys  []uint32          // random keys
	work  []uint32          // keys, sorted afresh on each run
	index map[uint32]uint32 // refilled on each run
	table []uint32          // 8 MiB, chased at random
	sink  uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{
		keys:  make([]uint32, 1<<18),
		work:  make([]uint32, 1<<18),
		index: make(map[uint32]uint32, 1<<17),
		table: make([]uint32, 1<<21),
	}
	x := uint32(0x9e3779b9)
	for i := range c.table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.table[i] = x
	}
	copy(c.keys, c.table)
	for i := 0; len(c.text) < 4<<20; i++ {
		c.text = strconv.AppendUint(c.text, uint64(c.table[i]%100000), 10)
		c.text = append(c.text, ' ')
	}
	return c
}

// run times one pass of the kernel.  Its four parts take about equal
// shares of it and stand for the kinds of work the requests do: a
// byte-at-a-time number scan (the parsers), hash-map inserts and
// lookups (name interning), a sort (branchy compute), and a chain of
// dependent random reads through a table larger than the per-core
// cache (the peelers' scattered pin lookups).  The garbage collection
// before it is not timed.
func (c *calibrator) run() float64 {
	runtime.GC()
	start := time.Now()
	n, sum := uint32(0), uint32(0)
	for pass := 0; pass < 4; pass++ {
		for _, b := range c.text {
			if b >= '0' && b <= '9' {
				n = n*10 + uint32(b-'0')
			} else {
				sum += n
				n = 0
			}
		}
	}
	for round := 0; round < 5; round++ {
		clear(c.index)
		for i, k := range c.keys[:1<<17] {
			c.index[k] = uint32(i)
		}
		for _, k := range c.keys[1<<16 : 3<<16] {
			sum += c.index[k]
		}
	}
	copy(c.work, c.keys)
	slices.Sort(c.work)
	sum += c.work[len(c.work)/2]
	mask := uint32(len(c.table) - 1)
	i := uint32(0)
	for k := 0; k < 1<<18; k++ {
		i = (c.table[i] + uint32(k)) & mask
	}
	c.sink = sum + i
	return time.Since(start).Seconds()
}

// scaled runs the kernel after a measurement and returns the factor
// that takes the measurement's times to nominal host speed: the
// nominal kernel time over the mean of the kernel's times just before
// (prev) and just after the measurement.  It also returns the after
// time, the next measurement's before time.
func (c *calibrator) scaled(prev float64) (factor, next float64) {
	next = c.run()
	return nominalCalSeconds / ((prev + next) / 2), next
}
