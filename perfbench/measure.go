package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of the standard tail quantiles that has at
// least ten samples beyond it in n samples (the median when none does).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is a snapshot of the process's CPU time and Go heap allocation
// counters, and of the machine's steal time.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	steal      uint64 // clock ticks
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		steal:      readSteal(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, allocBytes: u.allocBytes - o.allocBytes, allocObjs: u.allocObjs - o.allocObjs, steal: u.steal - o.steal}
}

// stealHz is the clock-tick rate /proc/stat counts in (USER_HZ).
const stealHz = 100

// readSteal returns the machine's steal time in clock ticks: the time its
// virtual CPUs were ready to run while the hypervisor ran something else
// (the steal column of /proc/stat's cpu line). It is 0 where that is not
// available, and then no segment is ever left out for steal.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// heapLive reads the heap bytes the last garbage collection marked live.
// Unlike the bytes occupied by heap objects, it leaves out garbage not yet
// collected, so it does not swing with where a sample falls in the GC
// cycle.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// segment is the length of the slices a phase is cut into: the rate and
// per-request cost metrics are medians over segments, so a burst of
// outside load moves one segment rather than the whole figure.
const segment = time.Second

// maxStealShare is the share of the machine's CPU time the hypervisor may
// steal during a segment before the segment is left out of the figures.
// On a shared virtual machine, steal comes in episodes that last from
// seconds to minutes; while one lasts, every timing on fleet-http reads
// 20-60% slower. Steal is the host's doing, not the program's: it only
// accrues while a virtual CPU is ready to run and is not given a
// physical one.
const maxStealShare = 0.02

// mark is a snapshot taken at a segment boundary; peak is the highest
// heap sample of the segment it closes.
type mark struct {
	at   time.Time
	use  usage
	ok   int
	peak uint64
}

// phase accumulates one measured phase: per-request latencies, request
// outcomes, and the process resources the phase consumed, sampled at
// segment boundaries. A sampler goroutine also tracks the peak heap.
type phase struct {
	mu     sync.Mutex
	lat    []latSample // completed requests, in completion order
	sent   int
	ok     int
	failed int // errors, rejections and wrong answers
	slo    float64
	inSLO  int
	marks  []mark

	start time.Time
	wall  time.Duration
	use   usage
	peak  uint64 // bytes, whole phase; written by the sampler until end returns
	seg   uint64 // bytes, current segment; likewise
	stop  chan struct{}
	done  chan struct{}
}

// beginPhase starts the phase's clocks; sloMs is the workload's latency
// limit.
func beginPhase(sloMs float64) *phase {
	p := &phase{slo: sloMs, stop: make(chan struct{}), done: make(chan struct{})}
	p.peak = heapLive()
	p.seg = p.peak
	p.start = time.Now()
	p.marks = []mark{{at: p.start, use: readUsage()}}
	go p.sample()
	return p
}

func (p *phase) sample() {
	defer close(p.done)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	next := p.start.Add(segment)
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			v := heapLive()
			p.peak, p.seg = max(p.peak, v), max(p.seg, v)
			if now.After(next) {
				p.mark()
				next = next.Add(segment)
			}
		}
	}
}

// mark closes a segment. It runs on the sampler goroutine, or after it
// has exited.
func (p *phase) mark() {
	u := readUsage()
	p.mu.Lock()
	p.marks = append(p.marks, mark{at: time.Now(), use: u, ok: p.ok, peak: p.seg})
	p.mu.Unlock()
	p.seg = 0
}

// record adds one finished request. okResp is false for failed,
// rejected or incorrect responses.
func (p *phase) record(model string, latMs float64, okResp bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	if !okResp {
		p.failed++
		return
	}
	p.ok++
	p.lat = append(p.lat, latSample{model, latMs, time.Now()})
	if latMs <= p.slo {
		p.inSLO++
	}
}

// end stops the clocks. Call after every request of the phase finished.
func (p *phase) end() {
	close(p.stop)
	<-p.done
	p.mark()
	p.wall = time.Since(p.start)
	p.use = p.marks[len(p.marks)-1].use.sub(p.marks[0].use)
	// A trailing sliver of a segment is merged into the one before it.
	if n := len(p.marks); n > 2 && p.marks[n-1].at.Sub(p.marks[n-2].at) < segment/2 {
		p.marks[n-1].peak = max(p.marks[n-1].peak, p.marks[n-2].peak)
		p.marks = append(p.marks[:n-2], p.marks[n-1])
	}
}

// steal returns each segment's steal share and whether the segment
// counts in the figures: those with a share of at most maxStealShare do.
// When fewer than half qualify, the half with the least steal counts
// instead, so a run on a busy host still reports, from its least
// disturbed part.
func (p *phase) steal() (share []float64, keep []bool) {
	n := len(p.marks) - 1
	share, keep = make([]float64, n), make([]bool, n)
	kept := 0
	for i := range share {
		a, b := p.marks[i], p.marks[i+1]
		share[i] = float64(b.use.steal-a.use.steal) / (b.at.Sub(a.at).Seconds() * stealHz * float64(runtime.NumCPU()))
		if keep[i] = share[i] <= maxStealShare; keep[i] {
			kept++
		}
	}
	if 2*kept >= n {
		return share, keep
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
		keep[i] = false
	}
	sort.SliceStable(order, func(x, y int) bool { return share[order[x]] < share[order[y]] })
	for _, i := range order[:(n+1)/2] {
		keep[i] = true
	}
	return share, keep
}

// stealNote describes which segments the figures leave out.
func (p *phase) stealNote() string {
	share, keep := p.steal()
	kept := 0
	pct := make([]string, len(share))
	for i, s := range share {
		pct[i] = strconv.FormatFloat(100*s, 'f', 1, 64)
		if keep[i] {
			kept++
		}
	}
	return "kept " + strconv.Itoa(kept) + " of " + strconv.Itoa(len(share)) +
		" segments; steal % per segment [" + strings.Join(pct, " ") + "]"
}

// segments returns, per segment that counts (see steal), completed
// requests per second, CPU ms per completed request and allocated KiB per
// completed request.
func (p *phase) segments() (rps, cpuMs, allocKB []float64) {
	_, keep := p.steal()
	for i := 1; i < len(p.marks); i++ {
		a, b := p.marks[i-1], p.marks[i]
		n := float64(b.ok - a.ok)
		if !keep[i-1] || n == 0 {
			continue
		}
		u := b.use.sub(a.use)
		rps = append(rps, n/b.at.Sub(a.at).Seconds())
		cpuMs = append(cpuMs, ms(u.cpu)/n)
		allocKB = append(allocKB, float64(u.allocBytes)/1024/n)
	}
	return rps, cpuMs, allocKB
}

// heapPeaks returns every segment's peak live heap in MiB. The heap is
// not a timing, so steal leaves no segment out.
func (p *phase) heapPeaks() []float64 {
	var out []float64
	for _, m := range p.marks[1:] {
		out = append(out, float64(m.peak)/(1<<20))
	}
	return out
}

// throughput is the median over segments of completed requests/s.
func (p *phase) throughput() float64 {
	rps, _, _ := p.segments()
	return quantile(rps, 0.5)
}

// latSample is one completed request's latency.
type latSample struct {
	model string
	ms    float64
	at    time.Time // completion
}

// keptLatencies returns the samples that completed in segments that count
// (see steal), in completion order.
func (p *phase) keptLatencies() []latSample {
	_, keep := p.steal()
	var out []latSample
	for _, s := range p.lat {
		// Segment i ends at marks[i+1]; every sample completes before the
		// final mark, which end takes after the last request.
		i := sort.Search(len(p.marks)-1, func(i int) bool { return !s.at.After(p.marks[i+1].at) })
		if i < len(keep) && keep[i] {
			out = append(out, s)
		}
	}
	return out
}

// latencyStats are a phase's latency figures: each is the median over
// up to eight equal chunks of the samples that completed in segments that
// count (see steal), in completion order, at least
// 1000 per chunk) of that chunk's value, so a burst of outside load
// spoils one chunk instead of the figure. tailQ is the tail quantile
// used: p99 when chunked (every chunk has ten samples beyond it),
// otherwise the highest quantile the whole sample supports.
type latencyStats struct {
	p50, tail, geomean float64
	tails              []float64 // per chunk
	tailQ              float64
	chunks, models, n  int // n: samples in kept segments
}

func (p *phase) latency() latencyStats {
	lat := p.keptLatencies()
	k := max(1, min(8, len(lat)/1000))
	st := latencyStats{chunks: k, tailQ: 0.99, n: len(lat)}
	if k == 1 {
		st.tailQ = tailQuantile(len(lat))
	}
	var p50s, tails, geos []float64
	size := len(lat) / k
	for i := 0; i < k; i++ {
		c := lat[i*size : (i+1)*size]
		if i == k-1 {
			c = lat[i*size:]
		}
		byModel := map[string][]float64{}
		var xs []float64
		for _, s := range c {
			xs = append(xs, s.ms)
			byModel[s.model] = append(byModel[s.model], s.ms)
		}
		var meds []float64
		for _, m := range byModel {
			meds = append(meds, quantile(m, 0.5))
		}
		st.models = max(st.models, len(byModel))
		p50s, tails, geos = append(p50s, quantile(xs, 0.5)), append(tails, quantile(xs, st.tailQ)), append(geos, geomean(meds))
	}
	st.p50, st.tail, st.geomean, st.tails = quantile(p50s, 0.5), quantile(tails, 0.5), quantile(geos, 0.5), tails
	return st
}
