package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
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

	"vccmin/internal/cliflag"
	"vccmin/internal/engine"
	"vccmin/internal/loadgen"
	"vccmin/internal/service"
	"vccmin/internal/tasks"
)

// The serve request stream. Its endpoint kinds, their weights and the
// request sizes are those of loadgen.ExtendedMix, the repository's own
// service traffic, restricted to capacity, operating-point, sim and
// fleet. Hot keys fit the engine's 512-entry memory tier (X-Cache:
// hit); warm keys, four times the memory tier, are computed into the
// disk tier during set-up (disk); misses are keys seen for the first
// time (miss: compute, marshal, store write).
//
// The measured operation is a batch of fixed composition: for every
// weighted kind, 16 hot, 3 warm and 1 first-sight request (80% / 15% /
// 5%), in seeded order. Its time is the sum of its requests' round
// trips, so every tier and kind feeds latency_p50_ms in proportion to
// the mix.
const (
	hotKeys    = 256
	warmKeys   = 2048
	batchHot   = 16
	batchWarm  = 3
	batchNew   = 1
	clients    = 2
	warmupReqs = 512
	// checkedBatches bounds the batches whose misses are re-run directly
	// after an untraced run to check their bytes; the traced run checks
	// every miss. The misses of the first digestBatches are digested.
	checkedBatches = 32
	digestBatches  = 8
)

// serveKinds names the loadgen endpoints the stream draws from.
var serveKinds = map[string]string{
	"capacity":        tasks.KindCapacity,
	"operating-point": tasks.KindOperatingPoint,
	"sim":             tasks.KindSim,
	"fleet":           tasks.KindFleetSweep,
}

// slotEndpoints maps slot % len to its endpoint: each kind appears as
// many times as its weight, so every weight-sized run of slots holds
// the mix exactly.
var slotEndpoints, slotErr = mixSlots(loadgen.ExtendedMix())

func mixSlots(mix []loadgen.Endpoint) ([]loadgen.Endpoint, error) {
	var out []loadgen.Endpoint
	for _, ep := range mix {
		if _, ok := serveKinds[ep.Name]; !ok {
			continue
		}
		if ep.Weight != math.Trunc(ep.Weight) {
			return nil, fmt.Errorf("loadgen endpoint %s: weight %g is not whole", ep.Name, ep.Weight)
		}
		for w := 0.0; w < ep.Weight; w++ {
			out = append(out, ep)
		}
	}
	if len(out) == 0 || hotKeys%len(out) != 0 || warmKeys%len(out) != 0 {
		return nil, fmt.Errorf("%d weighted serve slots do not divide %d hot and %d warm keys", len(out), hotKeys, warmKeys)
	}
	return out, nil
}

// serveReq is one request of the stream and the task the service builds
// from it.
type serveReq struct {
	slot   int
	kind   string
	method string
	target string
	body   []byte
	task   engine.Task
}

// mix64 is splitmix64: a cheap seeded hash that makes a slot's draws
// independent of the order the clients take batches in.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// request builds slot's request from its loadgen endpoint. A slot is its
// own cache key: the analytic kinds step pfail by 1e-9 per slot (the
// shortest float spelling round-trips through the query string), and
// sim and fleet take a seed hashed from the slot. Everything else is
// the endpoint's own request.
func request(seed int64, slot int) (serveReq, error) {
	ep := slotEndpoints[slot%len(slotEndpoints)]
	r := serveReq{slot: slot, kind: serveKinds[ep.Name], method: ep.Method}
	slotSeed := int64(mix64(uint64(seed)^uint64(slot)<<32)>>1) | 1
	u, err := url.Parse(ep.Path)
	if err != nil {
		return r, err
	}
	q := u.Query()
	known := func(keys ...string) error {
		for k := range q {
			if !slices.Contains(keys, k) {
				return fmt.Errorf("loadgen endpoint %s: parameter %q is not replayed", ep.Name, k)
			}
		}
		return nil
	}
	pfail := func() (float64, error) {
		p, err := strconv.ParseFloat(q.Get("pfail"), 64)
		p += float64(slot+1) * 1e-9
		q.Set("pfail", strconv.FormatFloat(p, 'g', -1, 64))
		return p, err
	}
	switch r.kind {
	case tasks.KindCapacity:
		if err = known("pfail"); err == nil {
			var p float64
			if p, err = pfail(); err == nil {
				r.task, err = tasks.NewCapacityTask(tasks.CapacityRequest{Pfail: &p})
			}
		}
	case tasks.KindOperatingPoint:
		if err = known("pfail"); err == nil {
			var p float64
			if p, err = pfail(); err == nil {
				r.task, err = tasks.NewOperatingPointTask(tasks.OperatingPointRequest{Pfail: &p})
			}
		}
	case tasks.KindSim:
		var req tasks.SimRequest
		dec := json.NewDecoder(strings.NewReader(ep.Body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&req); err == nil {
			req.Seed = slotSeed
			if r.body, err = json.Marshal(req); err == nil {
				r.task, err = tasks.NewSimTask(req)
			}
		}
	case tasks.KindFleetSweep:
		if err = known("dies", "schemes", "seed"); err == nil {
			req := tasks.FleetRequest{Schemes: cliflag.Split(q.Get("schemes")), Seed: slotSeed}
			if req.Dies, err = strconv.Atoi(q.Get("dies")); err == nil {
				q.Set("seed", strconv.FormatInt(slotSeed, 10))
				r.task, err = tasks.NewFleetTask(req)
			}
		}
	}
	r.target = u.Path + "?" + q.Encode()
	return r, err
}

// opRef is one request of a batch: its op id, tier class and slot.
type opRef struct {
	op    int64
	class string
	slot  int
}

// batchSize is the number of requests in a batch.
var batchSize = len(slotEndpoints) * (batchHot + batchWarm + batchNew)

// batchOps lists batch b in its seeded order. For every weighted kind
// position it holds batchHot hot slots and batchWarm warm slots of that
// position, drawn from the seed, and batchNew first-sight slots unique
// to the batch.
func batchOps(seed, b int64) []opRef {
	w := len(slotEndpoints)
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)^mix64(uint64(b))) >> 1)))
	ops := make([]opRef, 0, batchSize)
	for pos := 0; pos < w; pos++ {
		for k := 0; k < batchHot; k++ {
			ops = append(ops, opRef{class: "hit", slot: w*rng.Intn(hotKeys/w) + pos})
		}
		for k := 0; k < batchWarm; k++ {
			ops = append(ops, opRef{class: "disk", slot: hotKeys + w*rng.Intn(warmKeys/w) + pos})
		}
		for k := 0; k < batchNew; k++ {
			ops = append(ops, opRef{class: "miss", slot: hotKeys + warmKeys + (int(b)*batchNew+k)*w + pos})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].op = b*int64(batchSize) + int64(i)
	}
	return ops
}

// directBytes is what the service must serve for a task: its direct
// Run plus marshal.
func directBytes(ctx context.Context, t engine.Task) ([]byte, error) {
	v, err := t.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

type serveState struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	known  map[int][]byte // hot and warm slot → the bytes computed at set-up

	// tracing turns on the handler timer; handler holds ServeHTTP
	// durations by op while it is on.
	tracing atomic.Bool
	mu      sync.Mutex
	handler map[int64]time.Duration

	shadow *engine.Engine // traced run: replays the stream's engine calls
}

func (st *serveState) close() {
	if st.ts != nil {
		st.ts.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st.srv.Drain(ctx)
		cancel()
		st.srv.Close()
	}
	os.RemoveAll(st.dir)
}

func setupServe(e *env, i int) (st *serveState, cleanup func(), err error) {
	st = &serveState{dir: filepath.Join(e.tmp, fmt.Sprintf("serve-%d", i)), known: map[int][]byte{}, handler: map[int64]time.Duration{}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	// Set-up is serial work; on one P the garbage collector shares its
	// CPU instead of racing for a second one a shared host may be
	// stealing. The interactive pool is sized for the clients, not for
	// GOMAXPROCS at the time the server starts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := service.Config{DataDir: st.dir, CacheEntries: 512, InteractiveWorkers: clients}
	// The warm slots, then the hot ones, are computed through a first
	// server's engine into the disk tier. A second server over the same
	// data directory starts with an empty memory tier; touching the hot
	// slots promotes exactly them.
	first, err := service.New(cfg)
	if err != nil {
		return st, nil, err
	}
	for slot := hotKeys + warmKeys - 1; slot >= 0; slot-- {
		r, err := request(e.seed, slot)
		if err == nil {
			var res engine.Result
			res, err = first.Engine().Do(e.ctx, r.task)
			st.known[slot] = res.Bytes
		}
		if err != nil {
			first.Close()
			return st, nil, fmt.Errorf("set-up slot %d: %w", slot, err)
		}
	}
	first.Close()
	if e.traced {
		if err := copyTree(filepath.Join(st.dir, "results"), filepath.Join(st.dir, "shadow")); err != nil {
			return st, nil, err
		}
		if st.shadow, err = engine.New(engine.Options{MemEntries: 512, Dir: filepath.Join(st.dir, "shadow")}); err != nil {
			return st, nil, err
		}
	}
	if st.srv, err = service.New(cfg); err != nil {
		return st, nil, err
	}
	for slot := 0; slot < hotKeys; slot++ {
		r, _ := request(e.seed, slot)
		for _, eng := range []*engine.Engine{st.srv.Engine(), st.shadow} {
			if eng == nil {
				continue
			}
			if _, err := eng.Do(e.ctx, r.task); err != nil {
				return st, nil, err
			}
		}
	}
	inner := st.srv.Handler()
	st.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.tracing.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		d := time.Since(t0)
		op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
		st.mu.Lock()
		st.handler[op] = d
		st.mu.Unlock()
	}))
	e.listeners = append(e.listeners, st.ts.Listener.Addr().String())
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 30 * time.Second}
	// Open the connections and warm the handler path on hot slots.
	for i := 0; i < warmupReqs; i++ {
		r, _ := request(e.seed, i%hotKeys)
		if _, _, _, err := st.do(e.ctx, r, -1); err != nil {
			return st, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, st.close, nil
}

// copyTree copies the disk tier for the traced run's shadow engine.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// do sends one request and returns its body, X-Cache tier and round
// trip. A non-2xx status is an error.
func (st *serveState) do(ctx context.Context, r serveReq, op int64) ([]byte, string, time.Duration, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, st.ts.URL+r.target, body)
	if err != nil {
		return nil, "", 0, err
	}
	req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, "", 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, "", d, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", d, fmt.Errorf("%s %s: status %d: %s", r.method, r.target, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Cache"), d, nil
}

// serveRec is one completed request.
type serveRec struct {
	op      int64
	slot    int
	kind    string
	tier    string // X-Cache
	latency time.Duration
	body    []byte // misses only
	err     error

	// Traced phase only.
	handler   time.Duration
	engine    time.Duration
	engineSrc engine.Source
	run       time.Duration
	marshal   time.Duration
	queued    int64
}

// serveAgg folds a phase's requests as they complete, so a run of
// hundreds of thousands of requests keeps a few floats per request
// rather than whole records.
type serveAgg struct {
	attempted int
	errs      []error
	batches   []float64            // ms per batch without a failed request
	byTier    map[string][]float32 // ms of successful requests, by X-Cache
	perSecond []float64            // completions in each whole second
	misses    []serveRec           // misses of the first checkedBatches, with bodies
	traced    []serveRec           // traced phase: every request
}

// latencies lists the successful requests' latencies (ms), all tiers
// or one.
func (a *serveAgg) latencies(tiers ...string) []float64 {
	if len(tiers) == 0 {
		for t := range a.byTier {
			tiers = append(tiers, t)
		}
	}
	var out []float64
	for _, t := range tiers {
		for _, v := range a.byTier[t] {
			out = append(out, float64(v))
		}
	}
	return out
}

func (a *serveAgg) add(r serveRec, done time.Duration, traced bool) {
	a.attempted++
	if r.err != nil {
		a.errs = append(a.errs, r.err)
		return
	}
	a.byTier[r.tier] = append(a.byTier[r.tier], float32(ms(r.latency)))
	if s := int(done / time.Second); s < len(a.perSecond) {
		a.perSecond[s]++
	}
	// Only the misses of the first batches are checked and digested, so
	// memory stays flat however many requests the run completes.
	if r.body != nil && r.op < checkedBatches*int64(batchSize) {
		a.misses = append(a.misses, r)
	}
	if traced {
		r.body = nil
		a.traced = append(a.traced, r)
	}
}

func (a *serveAgg) merge(b *serveAgg) {
	a.attempted += b.attempted
	a.errs = append(a.errs, b.errs...)
	a.batches = append(a.batches, b.batches...)
	for t, v := range b.byTier {
		a.byTier[t] = append(a.byTier[t], v...)
	}
	for i, n := range b.perSecond {
		a.perSecond[i] += n
	}
	a.misses = append(a.misses, b.misses...)
	a.traced = append(a.traced, b.traced...)
}

// phase runs the closed loop: each client takes whole batches in index
// order from *next until the window has passed, and finishes the batch
// it is in.
func (st *serveState) phase(e *env, next *atomic.Int64, window time.Duration, traced bool) *serveAgg {
	st.tracing.Store(traced)
	defer st.tracing.Store(false)
	newAgg := func() *serveAgg {
		return &serveAgg{byTier: map[string][]float32{}, perSecond: make([]float64, int(window/time.Second))}
	}
	start := time.Now()
	aggs := make([]*serveAgg, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		aggs[c] = newAgg()
		wg.Add(1)
		go func(a *serveAgg) {
			defer wg.Done()
			for time.Since(start) < window && e.ctx.Err() == nil {
				var sum time.Duration
				ok := true
				for _, o := range batchOps(e.seed, next.Add(1)-1) {
					r := st.one(e, o, traced)
					a.add(r, time.Since(start), traced)
					sum += r.latency
					ok = ok && r.err == nil
				}
				if ok {
					a.batches = append(a.batches, ms(sum))
				}
			}
		}(aggs[c])
	}
	wg.Wait()
	all := newAgg()
	for _, a := range aggs {
		all.merge(a)
	}
	sort.Slice(all.misses, func(i, j int) bool { return all.misses[i].op < all.misses[j].op })
	return all
}

func (st *serveState) one(e *env, o opRef, traced bool) serveRec {
	r, err := request(e.seed, o.slot)
	rec := serveRec{op: o.op, slot: o.slot, kind: r.kind, err: err}
	if err != nil {
		return rec
	}
	if traced {
		rec.queued = st.srv.Jobs().Pool().Stats().Interactive.Queued
	}
	body, tier, lat, err := st.do(e.ctx, r, o.op)
	rec.tier, rec.latency, rec.err = tier, lat, err
	if err != nil {
		return rec
	}
	if want, ok := st.known[o.slot]; ok {
		if len(body) != len(want)+1 || !bytes.Equal(body[:len(want)], want) || body[len(want)] != '\n' {
			rec.err = fmt.Errorf("op %d (%s slot %d, %s): body differs from the set-up bytes", o.op, o.class, o.slot, tier)
		}
	} else {
		rec.body = body
	}
	if !traced {
		return rec
	}
	st.mu.Lock()
	rec.handler = st.handler[o.op]
	delete(st.handler, o.op)
	st.mu.Unlock()
	a := tracer.begin("engine.do", o.op, 0)
	res, err := st.shadow.Do(e.ctx, r.task)
	rec.engine = tracer.end(a)
	rec.engineSrc = res.Source
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	tracer.add(active{id: tracer.nextID.Add(1), op: o.op, name: "http.request", start: t0.Add(-lat)}, t0)
	if o.class == "miss" {
		var v any
		rec.run = tracer.timed("tasks.run", o.op, 0, func() { v, err = r.task.Run(e.ctx) })
		var b []byte
		if err == nil {
			rec.marshal = tracer.timed("tasks.marshal", o.op, 0, func() { b, err = json.Marshal(v) })
		}
		switch {
		case err != nil:
			rec.err = err
		case !bytes.Equal(body, append(b, '\n')):
			rec.err = fmt.Errorf("op %d (%s slot %d): body differs from the direct Run", o.op, r.kind, o.slot)
		}
	}
	return rec
}

func runServe(e *env) (*report, error) {
	if slotErr != nil {
		return nil, slotErr
	}
	st, cleanup, setupS, err := setupMedian(setupRuns, func(i int, _ func(func())) (*serveState, func(), error) { return setupServe(e, i) })
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &report{metrics: map[string]float64{"setup_s": setupS}}

	window := e.seconds
	if e.traced {
		window /= 2
	}
	var next atomic.Int64
	engine0 := tierCounts(st.srv.Engine())
	m0 := memNow()
	agg := st.phase(e, &next, window, false)
	mem := memNow().since(m0)
	engine1 := tierCounts(st.srv.Engine())
	if err := e.ctx.Err(); err != nil {
		return rep, err
	}
	rep.attempted += agg.attempted
	for _, err := range agg.errs {
		rep.fail("%v", err)
	}
	lat, misses := agg.latencies(), agg.misses
	// Miss bytes must equal the direct Run plus marshal; the misses of
	// the first batches are re-run here, outside the timed loop.
	for _, r := range misses {
		req, _ := request(e.seed, r.slot)
		b, err := directBytes(e.ctx, req.task)
		if err != nil || !bytes.Equal(r.body, append(b, '\n')) {
			rep.fail("op %d (%s slot %d): body differs from the direct Run (%v)", r.op, r.kind, r.slot, err)
		}
	}
	// Set-up bytes are engine-computed; spot-check them against direct
	// runs too.
	for slot := 0; slot < hotKeys+warmKeys; slot += 97 {
		req, _ := request(e.seed, slot)
		b, err := directBytes(e.ctx, req.task)
		if err != nil || !bytes.Equal(st.known[slot], b) {
			rep.fail("set-up slot %d: engine bytes differ from the direct Run (%v)", slot, err)
		}
	}
	digestOps := int64(digestBatches * batchSize)
	if want := int(digestBatches * batchNew * len(slotEndpoints)); len(misses) < want || misses[want-1].op >= digestOps {
		rep.fail("only %d misses of the first %d batches ran", len(misses), digestBatches)
	} else {
		dg := newDigest()
		for slot := 0; slot < hotKeys+warmKeys; slot++ {
			dg.add("slot "+strconv.Itoa(slot), st.known[slot])
		}
		for _, r := range misses[:want] {
			dg.add("op "+strconv.FormatInt(r.op, 10), r.body)
		}
		rep.digest = dg.sum()
	}

	if !e.traced {
		return rep, endToEndMetrics(rep.metrics, agg.batches)
	}

	m := rep.metrics
	m["serve.latency_p99_ms"] = quantile(lat, 0.99)
	m["serve.hit_latency_p50_ms"] = median(agg.latencies("hit"))
	m["serve.disk_latency_p50_ms"] = median(agg.latencies("disk"))
	m["serve.miss_latency_p50_ms"] = median(agg.latencies("miss"))
	if n := float64(agg.attempted); n > 0 {
		m["engine.hit_ratio"] = float64(engine1.hits-engine0.hits) / n
		m["engine.disk_hit_ratio"] = float64(engine1.disk-engine0.disk) / n
		m["engine.miss_ratio"] = float64(engine1.misses-engine0.misses) / n
	}
	runtimeMetrics(m, mem, agg.attempted)
	throughput(m, agg.perSecond)

	traced := st.phase(e, &next, window, true)
	if err := e.ctx.Err(); err != nil {
		return rep, err
	}
	rep.attempted += traced.attempted
	for _, err := range traced.errs {
		rep.fail("%v", err)
	}
	var (
		self, eng                  = map[string][]float64{}, map[engine.Source][]float64{}
		transport, store, marshals []float64
		runs                       = map[string][]float64{}
		queued                     int64
	)
	for _, r := range traced.traced {
		transport = append(transport, us(r.latency-r.handler))
		eng[r.engineSrc] = append(eng[r.engineSrc], us(r.engine))
		// A miss's self and store times difference two executions of
		// its compute; only the analytic kinds, whose compute takes
		// microseconds, keep that difference above the compute's noise.
		analytic := r.kind == tasks.KindCapacity || r.kind == tasks.KindOperatingPoint
		if string(r.engineSrc) == r.tier && (r.tier != "miss" || analytic) {
			self[r.tier] = append(self[r.tier], us(r.handler-r.engine))
		}
		if r.run > 0 {
			runs[r.kind] = append(runs[r.kind], ms(r.run))
			marshals = append(marshals, us(r.marshal))
			if r.engineSrc == engine.SourceCompute && analytic {
				store = append(store, us(r.engine-r.run-r.marshal))
			}
		}
		queued = max(queued, r.queued)
	}
	for _, tier := range []string{"hit", "disk", "miss"} {
		m["service.self_us."+tier] = median(self[tier])
	}
	m["http.transport_us"] = median(transport)
	m["engine.hit_us"] = median(eng[engine.SourceMemory])
	m["engine.disk_hit_us"] = median(eng[engine.SourceDisk])
	m["engine.miss_us"] = median(eng[engine.SourceCompute])
	m["engine.store_us"] = median(store)
	m["engine.pool_queued_max"] = float64(queued)
	for kind, v := range runs {
		m["tasks.run_ms."+kind] = median(v)
	}
	m["tasks.marshal_us"] = median(marshals)
	if p := median(agg.batches); p > 0 {
		m["trace.overhead"] = median(traced.batches)/p - 1
	}
	return rep, nil
}

type tiers struct{ hits, disk, misses uint64 }

func tierCounts(eng *engine.Engine) tiers {
	var t tiers
	for _, k := range eng.Stats() {
		t.hits += k.Hits
		t.disk += k.DiskHits
		t.misses += k.Misses
	}
	return t
}
