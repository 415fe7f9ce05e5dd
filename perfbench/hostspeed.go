package main

import (
	"math"
	"sync"
)

// The host's speed is not constant. On a shared virtual machine the same
// pass has taken 2.3 times the CPU seconds in one hour that it took in
// the hour before: while neighbours load the physical machine, each CPU
// second of the guest does less work. Wall times suffer from that and
// from in-guest contention; CPU times from that alone.
//
// refKernel measures the host's speed of the moment with fixed work that
// uses no code of the repository, so that no change to the repository
// can change its cost: dependent reads at pseudo-random addresses over a
// buffer larger than a core's private caches (the simulator's event queues,
// caches and sketches are pointer-heavy) and floating-point arithmetic
// (its TCP model is floating-point), on as many goroutines as the
// workloads use. The driver runs it before the first pass and after
// every pass, and scales the run's CPU seconds by refNominal ÷ the median
// kernel time: the end-to-end times read as CPU seconds on a host where
// the kernel takes refNominal.
const (
	refWords = 1 << 23 // 32 MiB of uint32 per goroutine
	refReads = 1 << 21 // dependent reads per goroutine
	refFlops = 1 << 20 // log/exp rounds per goroutine
	// refNominal sets the unit: about the kernel's CPU seconds on the
	// 2-vCPU host of README.md while that host was fast, estimated from
	// its slow phase (0.73–0.89 s) and the workloads' 2.2–2.5-fold
	// slowdown in that phase.
	refNominal = 0.4
)

// refKernel runs the reference work on parallel goroutines and returns
// the CPU seconds the process used for it. Its buffers are garbage when
// it returns; runPass returns them to the kernel before a pass starts, so
// they count in no pass's memory figures.
func refKernel(parallel int) float64 {
	bufs := make([][]uint32, parallel)
	for g := range bufs {
		bufs[g] = make([]uint32, refWords)
		for k := range bufs[g] {
			bufs[g][k] = 0 // fault every page in: reads of untouched pages all hit one zero page
		}
	}
	var wg sync.WaitGroup
	sink := make([]float64, parallel)
	c0 := cpuSeconds()
	for g := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := bufs[g]
			// A full-period LCG over the buffer's indices; adding the word
			// read (always 0) makes every read wait for the one before.
			i := uint32(g)
			for range refReads {
				i = (i*1664525 + 1013904223 + buf[i]) & (refWords - 1)
			}
			x := float64(i%7) + 1.5
			for range refFlops {
				x = math.Log(x*x+1) + math.Exp(-x)
			}
			sink[g] = x
		}()
	}
	wg.Wait()
	return cpuSeconds() - c0
}
