package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds. Every repetition but the last is torn down by the caller's
// setup itself (it receives the repetition index).
func timeSetup(reps int, setup func(rep int) error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		ts = append(ts, elapsedSince(t0))
	}
	return median(ts), nil
}

// rssMiB reads the process's current resident set in MiB (0 if unknown).
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeak samples the resident set every rssEvery until stopped, keeping the
// highest reading.
type rssPeak struct {
	stopc chan struct{}
	done  chan float64
}

const rssEvery = 2 * time.Millisecond

func startRSSPeak() *rssPeak {
	p := &rssPeak{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMiB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				p.done <- max(peak, rssMiB())
				return
			case <-t.C:
				peak = max(peak, rssMiB())
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the peak in MiB.
func (p *rssPeak) stop() float64 {
	close(p.stopc)
	return <-p.done
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU reads the runtime's cumulative estimates of GC CPU time and of the
// CPU time the process used: all CPU time (GOMAXPROCS × wall) less idle time.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// cpuWindow measures process CPU per wall second and the GC share of the
// CPU used over an interval.
type cpuWindow struct {
	wall                   time.Time
	cpu                    float64
	runtimeGC, runtimeUsed float64 // the runtime's own cumulative estimates
}

func startCPUWindow() cpuWindow {
	gc, used := gcCPU()
	return cpuWindow{wall: time.Now(), cpu: cpuSeconds(), runtimeGC: gc, runtimeUsed: used}
}

// stop returns (CPU seconds per wall second, GC share of the CPU used).
// Idle time is left out of the share, so a mostly idle process (serve,
// between requests) does not read as one with little GC work.
func (w cpuWindow) stop() (cpuPerWall, gcFrac float64) {
	gc, used := gcCPU()
	cpuPerWall = (cpuSeconds() - w.cpu) / elapsedSince(w.wall)
	if d := used - w.runtimeUsed; d > 0 {
		gcFrac = (gc - w.runtimeGC) / d
	}
	return cpuPerWall, gcFrac
}

// digestFiles returns a short SHA-256 over the named files' paths and
// contents.
func digestFiles(paths []string) string {
	h := sha256.New()
	for _, p := range paths {
		io.WriteString(h, p+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
