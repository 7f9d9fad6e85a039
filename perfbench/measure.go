package main

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. Throughput counts each workload's own unit of work: cells
// (sweep), requests (serve), dies (fleet) or rows scanned (query).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every traced run reports
// all of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"faults.pair_draws", "count"},
	{"faults.pair_draw_us", "us"},
	{"core.scheme_evals", "count"},
	{"core.scheme_eval_us", "us"},
	{"sim.build_us", "us"},
	{"workload.gen_ns_per_instr", "ns"},
	{"pipeline.self_ns_per_instr", "ns"},
	{"pipeline.minstr_per_s", "Minstr/s"},
	{"pipeline.instructions", "count"},
	{"pipeline.ipc_mean", "ipc"},
	{"cache.l1d_mpki", "mpki"},
	{"cache.l2_mpki", "mpki"},
	{"dvfs.runs", "count"},
	{"dvfs.run_ms", "ms"},
	{"sweep.row_write_us", "us"},
	{"sweep.layer_coverage", "ratio"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"serve.disk_latency_p50_ms", "ms"},
	{"serve.miss_latency_p50_ms", "ms"},
	{"service.self_us.hit", "us"},
	{"service.self_us.disk", "us"},
	{"service.self_us.miss", "us"},
	{"http.transport_us", "us"},
	{"engine.hit_us", "us"},
	{"engine.disk_hit_us", "us"},
	{"engine.miss_us", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.disk_hit_ratio", "ratio"},
	{"engine.miss_ratio", "ratio"},
	{"engine.store_us", "us"},
	{"engine.pool_queued_max", "count"},
	{"tasks.run_ms.capacity", "ms"},
	{"tasks.run_ms.operating-point", "ms"},
	{"tasks.run_ms.sim", "ms"},
	{"tasks.run_ms.fleet-sweep", "ms"},
	{"tasks.marshal_us", "us"},
	{"population.fleet_ms", "ms"},
	{"population.us_per_die_scheme", "us"},
	{"population.alloc_mb_per_kdie", "MB"},
	{"colstore.fold_s", "s"},
	{"colstore.open_ms", "ms"},
	{"colstore.decode_mb_per_s", "MB/s"},
	{"colstore.query_dir_ms", "ms"},
	{"colstore.query_mem_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
	{"throughput_per_s", "1/s"},
	{"fleet.latency_raw_p50_ms", "ms"},
	{"host.ref_us", "us"},
}

func reportedMetrics(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics fills the untraced run's metrics: the median op
// latency (ms) and the peak RSS.
func endToEndMetrics(m map[string]float64, lat []float64) error {
	m["latency_p50_ms"] = median(lat)
	rss, err := peakRSSMB()
	m["peak_rss_mb"] = rss
	return err
}

// throughput is the median over a run's blocks of work per second. A
// block is a stretch of the run with a fixed composition: a sweep
// chunk, a fleet or query block, one second of serve traffic. It is a
// per-layer metric: wall-clock work per second follows the CPU time the
// host grants the process, and under a shared host's steal it spread
// too widely between runs to gate on.
func throughput(m map[string]float64, rates []float64) {
	m["throughput_per_s"] = median(rates)
}

// refPairs is how many (severity, cell) pairs the reference kernel sorts.
const refPairs = 4096

// refNominal is the reference kernel's time that host-normalized
// latencies are scaled to: its typical time on the two-vCPU VM the
// benchmark was tuned on. Any constant gives the same run-to-run ratios.
const refNominal = 700 * time.Microsecond

type refPair struct {
	sev  float64
	cell int32
}

var (
	refBuf = make([]refPair, refPairs)
	refRNG = rand.New(rand.NewSource(1))
)

// hostRef times a fixed reference kernel: a comparison sort of seeded
// (float64, int32) pairs, the shape of the population layer's per-die
// fault sort. It reports the fastest of five sorts of the same input,
// so a GC slice or a preemption landing in one does not count. Its time
// follows how fast the shared host currently runs that kind of code.
func hostRef() time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		refRNG.Seed(1)
		for i := range refBuf {
			refBuf[i] = refPair{refRNG.Float64(), int32(i)}
		}
		t0 := time.Now()
		slices.SortFunc(refBuf, func(a, b refPair) int {
			if c := cmp.Compare(a.sev, b.sev); c != 0 {
				return c
			}
			return cmp.Compare(a.cell, b.cell)
		})
		best = min(best, time.Since(t0))
	}
	return best
}

// hostNormalizedMS scales an operation's time d by the reference
// kernel's time r measured just before it, to milliseconds on a host
// where the kernel takes refNominal.
func hostNormalizedMS(d, r time.Duration) float64 {
	return ms(d) * float64(refNominal) / float64(r)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta snapshots the allocator between two points of a run.
type memDelta struct{ alloc, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{alloc: a.alloc - b.alloc, gcs: a.gcs - b.gcs}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{alloc: a.alloc + b.alloc, gcs: a.gcs + b.gcs}
}

// runtimeMetrics reports allocation per operation and GC cycles over
// an untraced stretch of ops operations.
func runtimeMetrics(m map[string]float64, d memDelta, ops int) {
	if ops > 0 {
		m["runtime.alloc_kb_per_op"] = float64(d.alloc) / 1024 / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(d.gcs)
}

// oneProc runs a batch workload's single compute worker on one P. The
// garbage collector then shares that CPU instead of racing for a second
// vCPU that a shared host may be stealing: with two Ps, back-to-back
// query runs swung from 195 to 332 ms under host steal, with one from
// 210 to 270 ms.
func oneProc() { runtime.GOMAXPROCS(1) }

// setupRuns is how many times a run sets its workload up; setup_s is
// the median. Each set-up does a fixed amount of work of a few hundred
// milliseconds at least, so the median is not one short sample.
const setupRuns = 5

// setupMedian builds a workload's state n times and keeps the last one.
// Reporting the median build time keeps setup_s steady while still
// charging every lazy step to set-up. A build runs the benchmark's own
// input generation under untimed, which set-up time leaves out.
//
// Every set-up is torn down only by the returned cleanup, at the end of
// the run. Deleting thousands of files makes the file system stall
// later writes (ext4 mounted with discard stalled each put of the
// serve disk tier from 50 to 600-700 µs for seconds after a delete), so
// no teardown may overlap a timed set-up or the measured window.
func setupMedian[T any](n int, build func(i int, untimed func(func())) (T, func(), error)) (T, func(), float64, error) {
	var (
		state    T
		cleanups []func()
		times    []float64
	)
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	for i := 0; i < n; i++ {
		var skip time.Duration
		untimed := func(fn func()) {
			t0 := time.Now()
			fn()
			skip += time.Since(t0)
		}
		t0 := time.Now()
		s, c, err := build(i, untimed)
		times = append(times, (time.Since(t0) - skip).Seconds())
		if c != nil {
			cleanups = append(cleanups, c)
		}
		if err != nil {
			cleanup()
			return state, func() {}, 0, err
		}
		state = s
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.4g s\n", times)
	return state, cleanup, median(times), nil
}

// digest hashes a workload's deterministic output prefix.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(label string, b []byte) {
	fmt.Fprintf(d.h, "%s %d\n", label, len(b))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// ---- Tracing ----

// span is one timed call into a layer. Spans of one operation share Op;
// Parent links a call to the span that made it. A shadow span times a
// call made only to attribute time (it repeats work its parent already
// did) and is excluded from coverage sums.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanTracer keeps spans in memory; they are written out at exit.
type spanTracer struct {
	mu     sync.Mutex
	on     bool
	origin time.Time
	nextID atomic.Int64
	spans  []span
}

var tracer spanTracer

func (t *spanTracer) enable() {
	t.on = true
	t.origin = time.Now()
}

// active is a span that has begun; its id is known before it ends, so
// the calls it makes can name it as their parent.
type active struct {
	id, op, parent int64
	name           string
	start          time.Time
	shadow         bool
}

func (t *spanTracer) begin(name string, op, parent int64) active {
	return active{id: t.nextID.Add(1), op: op, parent: parent, name: name, start: time.Now()}
}

// end stores the span and returns its duration.
func (t *spanTracer) end(a active) time.Duration {
	now := time.Now()
	t.add(a, now)
	return now.Sub(a.start)
}

func (t *spanTracer) add(a active, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name, Shadow: a.shadow,
		Start: int64(a.start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

// timed runs fn as a span and returns its duration.
func (t *spanTracer) timed(name string, op, parent int64, fn func()) time.Duration {
	a := t.begin(name, op, parent)
	fn()
	return t.end(a)
}

// shadow is timed for a call that repeats work for attribution only.
func (t *spanTracer) shadow(name string, op, parent int64, fn func()) time.Duration {
	a := t.begin(name, op, parent)
	a.shadow = true
	fn()
	return t.end(a)
}

// stat sums the spans named name.
func (t *spanTracer) stat(name string) (n int, total time.Duration) {
	return t.sum(func(s span) bool { return s.Name == name })
}

// sum counts and sums the spans match accepts.
func (t *spanTracer) sum(match func(span) bool) (n int, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if match(s) {
			n++
			total += s.dur()
		}
	}
	return n, total
}

// durations lists the durations of the spans named name.
func (t *spanTracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanUS is the mean duration in microseconds of the spans named name.
func (t *spanTracer) meanUS(name string) float64 {
	n, total := t.stat(name)
	if n == 0 {
		return 0
	}
	return us(total) / float64(n)
}

func (t *spanTracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
