package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// setUp builds the workload and runs its warm-up rounds, and returns the
// instance with the seconds that took.
func setUp(w workload, seed int64, traced bool) (*instance, float64, error) {
	start := time.Now()
	inst, err := w.build(seed, traced)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	for r := 0; r < w.warm; r++ {
		_, failed, err := inst.round(nil, 0)
		if err == nil && failed > 0 {
			err = fmt.Errorf("%d of %d jobs broke the oracle", failed, inst.jobs)
		}
		if err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("warm-up round: %w", err)
		}
	}
	return inst, time.Since(start).Seconds(), nil
}

// phase is what one timed phase measured.
type phase struct {
	roundMs      []float64 // each round's time: the sum of its parts
	partBestMs   []float64 // per sequential part of a round, its fastest time in any round
	jobs, failed int
	seconds      float64 // wall time of the phase
	mallocs      uint64  // heap objects allocated during the phase, whole process
	allocBytes   uint64
	liveHeap     uint64  // HeapAlloc after a collection at the end
	gcCycles     uint32  // collections during the phase
	cpuMsPerJob  float64 // user+system CPU of the cheapest round, per job
}

// runPhase runs rounds back to back until d has passed. Every client waits
// for its replies before the next round starts: a closed loop.
func runPhase(inst *instance, d time.Duration, rec *recorder) (phase, error) {
	var ph phase
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	for time.Since(start) < d {
		id := rec.begin("round", 0)
		parts, failed, err := inst.round(rec, id)
		rec.end(id)
		if err != nil {
			return ph, fmt.Errorf("round %d: %w", len(ph.roundMs)+1, err)
		}
		ms := 0.0
		for i, part := range parts {
			ms += part
			if i == len(ph.partBestMs) {
				ph.partBestMs = append(ph.partBestMs, part)
			}
			ph.partBestMs[i] = min(ph.partBestMs[i], part)
		}
		now := cpuTime()
		if c := float64(now-cpu) / 1e6 / float64(inst.jobs); ph.cpuMsPerJob == 0 || c < ph.cpuMsPerJob {
			ph.cpuMsPerJob = c
		}
		cpu = now
		ph.roundMs = append(ph.roundMs, ms)
		ph.jobs += inst.jobs
		ph.failed += failed
	}
	ph.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second drops them, so pooled scratch does not count as live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.liveHeap = after.HeapAlloc
	runtime.KeepAlive(inst)
	return ph, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // a diagnostic only; the timings do not depend on it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// bestMs is the phase's best round: each sequential part of a round at its
// fastest. A round that is one indivisible piece of concurrent work has one
// part, and this is the minimum over rounds.
func (ph phase) bestMs() float64 {
	sum := 0.0
	for _, ms := range ph.partBestMs {
		sum += ms
	}
	return sum
}

// endToEndMetrics turns a phase and the set-up times into the gated metrics.
func endToEndMetrics(ph phase, setupSecs []float64, jobsPerRound int) map[string]float64 {
	best := ph.bestMs()
	jobs := float64(ph.jobs)
	return map[string]float64{
		"setup_s":          median(setupSecs),
		"round_best_ms":    best,
		"jobs_per_s":       float64(jobsPerRound) / best * 1000,
		"allocs_per_job":   float64(ph.mallocs) / jobs,
		"alloc_kb_per_job": float64(ph.allocBytes) / 1024 / jobs,
		"live_heap_mb":     float64(ph.liveHeap) / (1 << 20),
	}
}
