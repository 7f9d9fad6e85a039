package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vccmin/internal/colstore"
	"vccmin/internal/dvfs"
	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/sweep"
)

// The query workload's result set: 2^20 synthetic sweep rows in 16
// default-size shards, with coordinates drawn from the axes below.
const (
	queryShards = 16
	queryRows   = queryShards * colstore.DefaultShardRows
)

var (
	qPfails   = []float64{1e-4, 2e-4, 3e-4, 5e-4, 7e-4, 1e-3, 1.5e-3, 2e-3}
	qGeoms    = []geom.Geometry{geom.MustNew(32*1024, 8, 64), geom.MustNew(16*1024, 4, 64), geom.MustNew(64*1024, 16, 128)}
	qSchemes  = []sim.Scheme{sim.Baseline, sim.WordDisable, sim.BlockDisable, sim.IncrementalWordDisable, sim.BitFix}
	qVictims  = []sim.VictimKind{sim.NoVictim, sim.Victim10T, sim.Victim6T}
	qGrans    = []prob.Granularity{prob.GranularityBlock, prob.GranularitySet, prob.GranularityWay}
	qPolicies = []dvfs.PolicyKind{dvfs.PolicyNone, dvfs.PolicyOracle, dvfs.PolicyReactive, dvfs.PolicyInterval}
)

// rowGen draws seeded synthetic rows whose per-coordinate columns
// (analytic capacity, operating point) follow the models, so their
// dictionaries look like a real sweep's; the Monte Carlo columns are
// random.
type rowGen struct {
	rng   *rand.Rand
	cells map[sweep.Cell]cellCols
}

// cellCols are the columns that depend only on a row's coordinates.
type cellCols struct {
	key      string
	capacity float64
	pt       power.Point
}

func (g *rowGen) row(i int) sweep.Row {
	r := g.rng
	c := sweep.Cell{
		Pfail:       qPfails[r.Intn(len(qPfails))],
		Geometry:    qGeoms[r.Intn(len(qGeoms))],
		Scheme:      qSchemes[r.Intn(len(qSchemes))],
		Victim:      qVictims[r.Intn(len(qVictims))],
		Granularity: qGrans[r.Intn(len(qGrans))],
		Policy:      qPolicies[r.Intn(len(qPolicies))],
	}
	cc, ok := g.cells[c]
	if !ok {
		cc = cellCols{
			key:      c.Key(),
			capacity: prob.GranularityCapacity(c.Geometry, c.Granularity, c.Pfail),
			pt:       power.Default().OperatingPointForPfail(c.Pfail),
		}
		g.cells[c] = cc
	}
	row := sweep.Row{
		Key: cc.key, Index: i, Stream: sweep.StreamVersion,
		Pfail:    c.Pfail,
		GeomSize: c.Geometry.SizeBytes, GeomWays: c.Geometry.Ways, GeomBlock: c.Geometry.BlockBytes,
		Scheme: c.Scheme.String(), Victim: c.Victim.String(), Granularity: c.Granularity.String(),
		Seed:                 r.Int63(),
		ExpectedCapacity:     cc.capacity,
		MeanIPC:              0.2 + r.Float64(),
		BaselineIPC:          1.25,
		MeasuredCapacity:     r.Float64(),
		UnfitTrials:          r.Intn(4),
		Voltage:              cc.pt.Voltage,
		Frequency:            cc.pt.Freq,
		EnergyPerInstruction: power.EnergyPerWork(cc.pt),
		Trials:               3,
		Benchmarks:           3,
	}
	row.IPCDegradation = 1 - row.MeanIPC/row.BaselineIPC
	if c.Policy != dvfs.PolicyNone {
		row.Policy = c.Policy.String()
		row.DVFSPerformance = r.Float64()
		row.DVFSEnergyPerInst = r.Float64()
		sw, ls := float64(r.Intn(10)), r.Float64()
		row.DVFSSwitches, row.DVFSLowShare = &sw, &ls
	}
	return row
}

type queryState struct {
	dir    string
	shards string // the shard directory the queries read
	check  string // a one-shard copy for the Dir-versus-Mem check
	src    *colstore.Dir
	foldS  float64
	openMS float64
}

// setupQuery folds the seeded rows into the shard directory, one
// default-size shard at a time so at most one shard's rows are held,
// opens it and runs one warm-up query. Making the rows and copying the
// check shard are the benchmark's own work and run untimed.
func setupQuery(e *env, i int, untimed func(func())) (*queryState, func(), error) {
	st := &queryState{dir: filepath.Join(e.tmp, fmt.Sprintf("query-%d", i))}
	st.shards = filepath.Join(st.dir, "shards")
	st.check = filepath.Join(st.dir, "check")
	cleanup := func() { os.RemoveAll(st.dir) }
	if err := os.MkdirAll(st.shards, 0o755); err != nil {
		return nil, cleanup, err
	}
	gen := &rowGen{rng: rand.New(rand.NewSource(e.seed)), cells: map[sweep.Cell]cellCols{}}
	rows := make([]sweep.Row, colstore.DefaultShardRows)
	var fold time.Duration
	for s := 0; s < queryShards; s++ {
		untimed(func() {
			for j := range rows {
				rows[j] = gen.row(s*len(rows) + j)
			}
		})
		part := filepath.Join(st.dir, "part-"+strconv.Itoa(s))
		t0 := time.Now()
		err := colstore.WriteDir(part, rows, colstore.DefaultShardRows)
		fold += time.Since(t0)
		if err != nil {
			return nil, cleanup, err
		}
		name := fmt.Sprintf("%06d.colv1", s)
		if err := os.Rename(filepath.Join(part, "000000.colv1"), filepath.Join(st.shards, name)); err != nil {
			return nil, cleanup, err
		}
		if err := os.Remove(part); err != nil {
			return nil, cleanup, err
		}
	}
	st.foldS = fold.Seconds()
	if err := os.MkdirAll(st.check, 0o755); err != nil {
		return nil, cleanup, err
	}
	var err error
	untimed(func() {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(st.shards, "000000.colv1")); err == nil {
			err = os.WriteFile(filepath.Join(st.check, "000000.colv1"), b, 0o644)
		}
	})
	if err != nil {
		return nil, cleanup, err
	}
	t0 := time.Now()
	st.src, err = colstore.OpenDir(st.shards)
	st.openMS = ms(time.Since(t0))
	if err != nil {
		return nil, cleanup, err
	}
	_, err = colstore.Query(st.src, colstore.Spec{GroupBy: []string{"scheme"}, Metrics: []string{"mean_ipc"}})
	return st, cleanup, err
}

// Query shapes: every (axes, metrics) count pair from 1..3 × 1..3,
// each once plain and once filtered. The axes and metrics of each shape
// are drawn once from a fixed design seed, so every block has the same
// mix of touched columns and group counts; the run seed draws the
// filters (a where value and a four-value pfail window) and the order.
var (
	qAxes      = []string{"pfail", "geometry", "scheme", "victim", "granularity", "policy"}
	qMetrics   = []string{"expected_capacity", "mean_ipc", "ipc_degradation", "measured_capacity", "energy_per_instruction", "unfit_trials", "dvfs_performance", "dvfs_energy_per_instruction"}
	qWhereAxes = []string{"scheme", "victim", "granularity", "policy"}
	qShapes    = queryShapes(0x51ed)
)

type queryShape struct {
	groupBy, metrics []string
	whereAxis        string // "" = unfiltered
}

func queryShapes(design int64) []queryShape {
	rng := rand.New(rand.NewSource(design))
	var out []queryShape
	for k := 0; k < 18; k++ {
		nAxes, nMetrics := 1+k%3, 1+(k/3)%3
		var sh queryShape
		for _, a := range rng.Perm(len(qAxes))[:nAxes] {
			sh.groupBy = append(sh.groupBy, qAxes[a])
		}
		for _, m := range rng.Perm(len(qMetrics))[:nMetrics] {
			sh.metrics = append(sh.metrics, qMetrics[m])
		}
		if k >= 9 {
			sh.whereAxis = qWhereAxes[rng.Intn(len(qWhereAxes))]
		}
		out = append(out, sh)
	}
	return out
}

// whereValues lists the rendered values an axis filter can match.
func whereValues(axis string) []string {
	var out []string
	switch axis {
	case "scheme":
		for _, s := range qSchemes {
			out = append(out, s.String())
		}
	case "victim":
		for _, v := range qVictims {
			out = append(out, v.String())
		}
	case "granularity":
		for _, g := range qGrans {
			out = append(out, g.String())
		}
	case "policy":
		for _, p := range qPolicies {
			out = append(out, p.String())
		}
	}
	return out
}

func queryBlocks(seed int64) func(i int) []colstore.Spec {
	rng := rand.New(rand.NewSource(seed))
	var blocks [][]colstore.Spec
	return func(i int) []colstore.Spec {
		for len(blocks) <= i {
			var b []colstore.Spec
			for _, k := range rng.Perm(len(qShapes)) {
				sh := qShapes[k]
				q := colstore.Spec{GroupBy: sh.groupBy, Metrics: sh.metrics}
				if sh.whereAxis != "" {
					vals := whereValues(sh.whereAxis)
					q.Where = map[string]string{sh.whereAxis: vals[rng.Intn(len(vals))]}
					lo := rng.Intn(len(qPfails) - 3)
					q.PfailMin, q.PfailMax = &qPfails[lo], &qPfails[lo+3]
				}
				b = append(b, q)
			}
			blocks = append(blocks, b)
		}
		return blocks[i]
	}
}

// checkQuery holds for any seed: every row is scanned, and the groups
// partition the matched rows.
func checkQuery(res *colstore.Result) string {
	cells := 0
	for _, g := range res.Groups {
		cells += g.Cells
	}
	switch {
	case res.Rows != queryRows:
		return fmt.Sprintf("scanned %d rows of %d", res.Rows, queryRows)
	case cells != res.Matched || res.Matched > res.Rows:
		return fmt.Sprintf("groups hold %d cells, %d matched of %d", cells, res.Matched, res.Rows)
	}
	return ""
}

func runQuery(e *env) (*report, error) {
	oneProc()
	st, cleanup, setupS, err := setupMedian(setupRuns, func(i int, untimed func(func())) (*queryState, func(), error) { return setupQuery(e, i, untimed) })
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &report{metrics: map[string]float64{"setup_s": setupS}}

	window := e.seconds
	if e.traced {
		window /= 2
	}
	next := queryBlocks(e.seed)
	dg := newDigest()
	block := 0
	var mem colstore.Mem // traced: the decoded shards
	phase := func(traced bool) (lat, rates []float64, err error) {
		start := time.Now()
		for first := true; first || time.Since(start) < window; first = false {
			if err := e.ctx.Err(); err != nil {
				return lat, rates, err
			}
			blockStart, rows := time.Now(), 0
			for i, q := range next(block) {
				op := int64(block*len(qShapes) + i)
				rep.attempted++
				var res *colstore.Result
				d := tracer.timed("colstore.query_dir", op, 0, func() { res, err = colstore.Query(st.src, q) })
				if err != nil {
					rep.fail("query %d: %v", op, err)
					continue
				}
				if msg := checkQuery(res); msg != "" {
					rep.fail("query %d: %s", op, msg)
					continue
				}
				lat = append(lat, ms(d))
				rows += res.Rows
				b, err := json.Marshal(res)
				if err != nil {
					rep.fail("query %d: %v", op, err)
					continue
				}
				if block == 0 {
					dg.add("query "+strconv.Itoa(i), b)
				}
				if traced {
					var mres *colstore.Result
					tracer.shadow("colstore.query_mem", op, 0, func() { mres, err = colstore.Query(mem, q) })
					mb, merr := json.Marshal(mres)
					if err != nil || merr != nil || string(mb) != string(b) {
						rep.fail("query %d: Mem answer differs from Dir (%v, %v)", op, err, merr)
					}
				}
			}
			rates = append(rates, float64(rows)/time.Since(blockStart).Seconds())
			block++
		}
		return lat, rates, nil
	}
	m0 := memNow()
	lat, rates, err := phase(false)
	memD := memNow().since(m0)
	if err != nil {
		return rep, err
	}
	rep.digest = dg.sum()
	// Dir and Mem answer the first block byte-identically over the
	// one-shard copy.
	if msg := checkDirMem(st.check, next(0)); msg != "" {
		rep.fail("%s", msg)
	}
	if !e.traced {
		return rep, endToEndMetrics(rep.metrics, lat)
	}

	m := rep.metrics
	runtimeMetrics(m, memD, len(lat))
	throughput(m, rates)
	m["colstore.fold_s"] = st.foldS
	m["colstore.open_ms"] = st.openMS
	var decodeBytes int
	var decode time.Duration
	for s := 0; s < queryShards; s++ {
		b, err := os.ReadFile(filepath.Join(st.shards, fmt.Sprintf("%06d.colv1", s)))
		if err != nil {
			return rep, err
		}
		var sh *colstore.Shard
		decode += tracer.timed("colstore.decode", -1, 0, func() { sh, err = colstore.Decode(b) })
		if err != nil {
			return rep, err
		}
		decodeBytes += len(b)
		mem = append(mem, sh)
	}
	m["colstore.decode_mb_per_s"] = float64(decodeBytes) / (1 << 20) / decode.Seconds()
	tracedLat, _, err := phase(true)
	if err != nil {
		return rep, err
	}
	m["colstore.query_dir_ms"] = median(tracedLat)
	var memLat []float64
	for _, d := range tracer.durations("colstore.query_mem") {
		memLat = append(memLat, ms(d))
	}
	m["colstore.query_mem_ms"] = median(memLat)
	if p := median(lat); p > 0 {
		m["trace.overhead"] = median(tracedLat)/p - 1
	}
	return rep, nil
}

// checkDirMem runs queries over a one-shard directory and over the same
// shard decoded in memory; the answers must be byte-identical.
func checkDirMem(dir string, queries []colstore.Spec) string {
	src, err := colstore.OpenDir(dir)
	if err != nil {
		return err.Error()
	}
	b, err := os.ReadFile(filepath.Join(dir, "000000.colv1"))
	if err != nil {
		return err.Error()
	}
	sh, err := colstore.Decode(b)
	if err != nil {
		return err.Error()
	}
	for i, q := range queries {
		dres, derr := colstore.Query(src, q)
		mres, merr := colstore.Query(colstore.Mem{sh}, q)
		db, _ := json.Marshal(dres)
		mb, _ := json.Marshal(mres)
		if derr != nil || merr != nil || string(db) != string(mb) {
			return fmt.Sprintf("query %d: Dir and Mem answers differ (%v, %v)", i, derr, merr)
		}
	}
	return ""
}
