package colstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vccmin/internal/stats"
)

// Axes are the groupable/filterable coordinates. "geometry" is the
// composite SIZExWAYSxBLOCK rendering of the three geom_* columns;
// "policy" renders the classic cells' empty policy as "none" (the
// dvfs.PolicyNone spelling), so the axis has no invisible value.
var Axes = []string{"pfail", "geometry", "scheme", "victim", "granularity", "policy", "stream"}

// Metrics are the aggregatable numeric columns. Integer columns
// aggregate as floats; the optional DVFS columns aggregate over the
// rows that carry them (scheduled cells), so their count can be smaller
// than the group's cell count.
var Metrics = []string{
	"expected_capacity", "whole_cache_fail_prob",
	"mean_ipc", "baseline_ipc", "ipc_degradation", "measured_capacity",
	"unfit_trials", "voltage", "frequency", "energy_per_instruction",
	"trials", "benchmarks",
	"dvfs_performance", "dvfs_energy_per_instruction", "dvfs_switches", "dvfs_low_share",
}

// maxGroupBy bounds the group-by depth. Seven axes exist but grouping
// by more than a few re-enumerates the grid; four covers every sensible
// slice.
const maxGroupBy = 4

// Spec is one aggregation question over a result set: filter rows,
// group them by axes, aggregate metrics within each group.
type Spec struct {
	// GroupBy lists up to four axes; empty aggregates everything into
	// the single group "all".
	GroupBy []string `json:"group_by,omitempty"`
	// Metrics lists the columns to aggregate; at least one.
	Metrics []string `json:"metrics"`
	// Where keeps only rows whose axis renders exactly to the given
	// value (e.g. {"scheme": "block-disable"}, {"pfail": "0.001"}).
	Where map[string]string `json:"where,omitempty"`
	// PfailMin/PfailMax keep only rows with pfail in the closed range.
	PfailMin *float64 `json:"pfail_min,omitempty"`
	PfailMax *float64 `json:"pfail_max,omitempty"`
}

// Check validates the spec against the axis and metric whitelists.
func (q Spec) Check() error {
	if len(q.GroupBy) > maxGroupBy {
		return fmt.Errorf("colstore: %d group-by axes, limit %d", len(q.GroupBy), maxGroupBy)
	}
	seen := map[string]bool{}
	for _, a := range q.GroupBy {
		if !contains(Axes, a) {
			return fmt.Errorf("colstore: unknown group-by axis %q (axes: %s)", a, strings.Join(Axes, ", "))
		}
		if seen[a] {
			return fmt.Errorf("colstore: duplicate group-by axis %q", a)
		}
		seen[a] = true
	}
	if len(q.Metrics) == 0 {
		return fmt.Errorf("colstore: at least one metric required (metrics: %s)", strings.Join(Metrics, ", "))
	}
	seenM := map[string]bool{}
	for _, m := range q.Metrics {
		if !contains(Metrics, m) {
			return fmt.Errorf("colstore: unknown metric %q (metrics: %s)", m, strings.Join(Metrics, ", "))
		}
		if seenM[m] {
			return fmt.Errorf("colstore: duplicate metric %q", m)
		}
		seenM[m] = true
	}
	for a := range q.Where {
		if !contains(Axes, a) {
			return fmt.Errorf("colstore: unknown where axis %q (axes: %s)", a, strings.Join(Axes, ", "))
		}
	}
	if nonFinite(q.PfailMin) {
		return fmt.Errorf("colstore: pfail_min %v is not a finite number", *q.PfailMin)
	}
	if nonFinite(q.PfailMax) {
		return fmt.Errorf("colstore: pfail_max %v is not a finite number", *q.PfailMax)
	}
	if q.PfailMin != nil && q.PfailMax != nil && *q.PfailMin > *q.PfailMax {
		return fmt.Errorf("colstore: pfail range [%v,%v] is empty", *q.PfailMin, *q.PfailMax)
	}
	return nil
}

func nonFinite(p *float64) bool {
	return p != nil && (math.IsNaN(*p) || math.IsInf(*p, 0))
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// axisColumns lists the underlying shard columns one axis reads: the
// composite geometry axis spans three, every other axis is its own
// column.
func axisColumns(axis string) []string {
	if axis == "geometry" {
		return []string{"geom_size", "geom_ways", "geom_block"}
	}
	return []string{axis}
}

// columns is the set of shard columns the spec touches — what Query
// asks a ColumnSource to decode. Metrics are columns by name; group-by
// and where axes expand through axisColumns; the pfail range reads the
// pfail column.
func (q Spec) columns() map[string]bool {
	need := map[string]bool{}
	for _, a := range q.GroupBy {
		for _, c := range axisColumns(a) {
			need[c] = true
		}
	}
	for a := range q.Where {
		for _, c := range axisColumns(a) {
			need[c] = true
		}
	}
	if q.PfailMin != nil || q.PfailMax != nil {
		need["pfail"] = true
	}
	for _, m := range q.Metrics {
		need[m] = true
	}
	return need
}

// Aggregate is one metric's summary within one group. Quantiles are
// stats.QuantileSorted nearest-rank order statistics — the same
// definition the population layer's Vcc-min quantiles use. A metric
// with no carrying rows (count 0) reports zeros, never NaN.
type Aggregate struct {
	Metric string  `json:"metric"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Group is one group-by bucket: its canonical key ("axis=value;..." in
// GroupBy order, or "all"), the matched row count, and one Aggregate
// per requested metric, in request order.
type Group struct {
	Key        string      `json:"key"`
	Cells      int         `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`
}

// Result is a query's answer.
type Result struct {
	// Rows is the total row count scanned; Matched the rows that passed
	// the filters.
	Rows    int     `json:"rows"`
	Matched int     `json:"matched"`
	Groups  []Group `json:"groups"`
}

// Query evaluates the spec over the source without materializing rows:
// it scans the referenced columns shard by shard (over a ColumnSource,
// only those columns are read and decoded), collects each group×metric
// sample, and aggregates it in ascending value order. Aggregating in
// value order is what makes the answer independent of row order — a
// fresh run's cell-order checkpoint and a resumed run's appended-tail
// checkpoint hold the same rows in different orders and must produce
// byte-identical aggregates, since the query's cache identity does not
// include the source's history.
func Query(src Source, q Spec) (*Result, error) {
	if err := q.Check(); err != nil {
		return nil, err
	}
	st := &queryState{spec: q, groups: map[string]*groupAcc{}, buf: scanBuffers{axes: make([]*axisIDs, len(Axes))}}
	scan := func(s *Shard) error { return st.scan(s) }
	var err error
	if cs, ok := src.(ColumnSource); ok {
		err = cs.ShardsColumns(q.columns(), scan)
	} else {
		err = src.Shards(scan)
	}
	if err != nil {
		return nil, err
	}
	// Drop the scan's buffers before finalize: the samples and its sort
	// buffers set the query's peak heap, and they would only add to it.
	st.buf = scanBuffers{}
	return st.finalize(), nil
}

// groupAcc accumulates one group across shards.
type groupAcc struct {
	key   string
	parts []axisValue // one per GroupBy axis, for canonical ordering
	cells int
	// vals holds each metric's sample as one exactly sized segment per
	// shard that contributed values, in scan order; finalize aggregates
	// and releases them.
	vals [][][]float64
}

// axisValue is one axis coordinate of a group: its rendering plus a
// numeric sort key for the numeric axes (pfail sorts by value,
// geometry by size/ways/block — lexical order would put 8192 after
// 32768).
type axisValue struct {
	str     string
	nums    []float64
	numeric bool
}

type queryState struct {
	spec    Spec
	groups  map[string]*groupAcc
	rows    int
	matched int
	buf     scanBuffers
}

// scanBuffers is scan's per-shard scratch, reused from one shard to the
// next: the axes built for the current shard (indexed like Axes), the
// id columns of the two axes not stored as dictionaries, the per-id
// filter verdicts, the selected rows, their shard-local group ids, the
// local-id-to-group table, and per local group its selected-row count,
// one metric's carrying-row count, and that metric's segment with its
// fill position.
type scanBuffers struct {
	axes              []*axisIDs
	pfailIDs, geomIDs []uint32
	keep              []bool
	sel               []int
	gids              []uint32
	local             []*groupAcc
	cells, n, pos     []int
	seg               [][]float64
}

// maxDenseGroups bounds the product of the group-by axes' distinct
// counts that scan numbers directly (id of axis 1 × count of axis 2 +
// id of axis 2, ...); past it, each step renumbers the pairs densely.
const maxDenseGroups = 1 << 16

// scan processes one shard column at a time: filter once per distinct
// id into a selection, give each selected row a shard-local group id,
// resolve each local group to its cross-shard group once, and copy
// each metric column with a typed loop into one segment per local
// group, sized to that group's carrying rows — no per-row closure,
// string rendering or slice growth. Nothing scan keeps refers to the
// shard's buffers, which a ColumnSource may reuse for the next shard:
// rendered values are fresh strings and metric values are copied.
func (st *queryState) scan(s *Shard) error {
	st.rows += s.rows
	clear(st.buf.axes)
	sel := st.filter(s)
	st.matched += len(sel)
	if len(sel) == 0 {
		return nil
	}

	gids := resize(st.buf.gids, len(sel))
	st.buf.gids = gids
	clear(gids)
	groupAxes := make([]*axisIDs, len(st.spec.GroupBy))
	ng := 1
	for k, name := range st.spec.GroupBy {
		ax := st.axis(s, name)
		groupAxes[k] = ax
		switch {
		case k == 0:
			for i, r := range sel {
				gids[i] = ax.ids[r]
			}
			ng = ax.n
		case ax.n <= maxDenseGroups/ng:
			n := uint32(ax.n)
			for i, r := range sel {
				gids[i] = gids[i]*n + ax.ids[r]
			}
			ng *= ax.n
		default:
			ng = renumber(gids, ax.ids, sel)
		}
	}

	local := resize(st.buf.local, ng)
	st.buf.local = local
	clear(local)
	cells := resize(st.buf.cells, ng)
	st.buf.cells = cells
	clear(cells)
	for i, r := range sel {
		g := gids[i]
		if local[g] == nil {
			local[g] = st.globalGroup(groupAxes, r)
		}
		cells[g]++
	}
	for g, acc := range local {
		if acc != nil {
			acc.cells += cells[g]
		}
	}

	pos := resize(st.buf.pos, ng)
	st.buf.pos = pos
	seg := resize(st.buf.seg, ng)
	st.buf.seg = seg
	for m, name := range st.spec.Metrics {
		// Size each local group's segment: every selected row carries a
		// plain column, only the present rows an optional DVFS one.
		n := cells
		opt, optional := s.opts[name]
		if optional {
			n = resize(st.buf.n, ng)
			st.buf.n = n
			clear(n)
			for i, r := range sel {
				if opt.present[r] {
					n[gids[i]]++
				}
			}
		}
		for g, acc := range local {
			seg[g], pos[g] = nil, 0
			if acc != nil && n[g] > 0 {
				seg[g] = make([]float64, n[g])
				acc.vals[m] = append(acc.vals[m], seg[g])
			}
		}
		if col, ok := s.floats[name]; ok {
			for i, r := range sel {
				g := gids[i]
				seg[g][pos[g]] = col[r]
				pos[g]++
			}
		} else if col, ok := s.ints[name]; ok {
			for i, r := range sel {
				g := gids[i]
				seg[g][pos[g]] = float64(col[r])
				pos[g]++
			}
		} else {
			for i, r := range sel {
				if opt.present[r] {
					g := gids[i]
					seg[g][pos[g]] = opt.vals[r]
					pos[g]++
				}
			}
		}
	}
	clear(seg) // the segments belong to their groups now
	return nil
}

// filter returns the rows of s that pass every Where clause and the
// pfail range. Each clause is evaluated once per distinct id of its
// axis; the selection is then narrowed one axis column at a time.
func (st *queryState) filter(s *Shard) []int {
	min, max := st.spec.PfailMin, st.spec.PfailMax
	sel, all := st.buf.sel[:0], true
	for _, name := range Axes {
		want, where := st.spec.Where[name]
		ranged := name == "pfail" && (min != nil || max != nil)
		if !where && !ranged {
			continue
		}
		ax := st.axis(s, name)
		keep := resize(st.buf.keep, ax.n)
		st.buf.keep = keep
		kept := 0
		for id := range keep {
			ok := true
			if ranged {
				p := ax.pfail[id]
				ok = (min == nil || p >= *min) && (max == nil || p <= *max)
			}
			if ok && where {
				ok = ax.value(uint32(id)).str == want
			}
			keep[id] = ok
			if ok {
				kept++
			}
		}
		if kept == ax.n {
			continue
		}
		j := 0
		if all {
			sel = resize(sel, s.rows)
			for r, id := range ax.ids {
				if keep[id] {
					sel[j] = r
					j++
				}
			}
			all = false
		} else {
			for _, r := range sel {
				if keep[ax.ids[r]] {
					sel[j] = r
					j++
				}
			}
		}
		sel = sel[:j]
		if j == 0 {
			break
		}
	}
	if all {
		sel = resize(sel, s.rows)
		for r := range sel {
			sel[r] = r
		}
	}
	st.buf.sel = sel
	return sel
}

// renumber replaces each selected row's group id with a dense id for
// the pair (group id, ids[row]), in first-appearance order, and returns
// the number of distinct pairs.
func renumber(gids, ids []uint32, sel []int) int {
	var a idAssigner[uint64]
	var last uint64
	var lastID uint32
	for i, r := range sel {
		k := uint64(gids[i])<<32 | uint64(ids[r])
		if i == 0 || k != last {
			last, lastID = k, a.id(k)
		}
		gids[i] = lastID
	}
	return len(a.keys)
}

// globalGroup resolves a shard-local group, given one of its rows, to
// the cross-shard group, creating it on first sight. Keyed by the
// canonical key string: shard-local ids differ across shards,
// renderings do not.
func (st *queryState) globalGroup(axes []*axisIDs, r int) *groupAcc {
	parts := make([]axisValue, len(axes))
	for i, ax := range axes {
		parts[i] = ax.value(ax.ids[r])
	}
	key := "all"
	if len(axes) > 0 {
		var b strings.Builder
		for i, p := range parts {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(st.spec.GroupBy[i])
			b.WriteByte('=')
			b.WriteString(p.str)
		}
		key = b.String()
	}
	acc, ok := st.groups[key]
	if !ok {
		acc = &groupAcc{key: key, parts: parts, vals: make([][][]float64, len(st.spec.Metrics))}
		st.groups[key] = acc
	}
	return acc
}

// axisIDs is one axis of one shard in dense-id form: a shard-local id
// per row, numbered in first-appearance order, the number of ids, and
// the value behind each id. Each id is rendered at most once.
type axisIDs struct {
	name  string
	ids   []uint32
	n     int
	dict  []string   // dictionary axes: each id's stored value
	pfail []float64  // pfail: each id's value
	geom  [][3]int64 // geometry: each id's size, ways and block

	rendered []axisValue
	done     []bool
}

// axis returns the named axis of s, building it on first use in this
// shard. The dictionary axes use their stored indices as ids, and so
// does pfail when the shard was decoded from a dictionary-encoded
// column; otherwise pfail and geometry are numbered here, into buffers
// reused across shards.
func (st *queryState) axis(s *Shard, name string) *axisIDs {
	slot := -1
	for i, a := range Axes {
		if a == name {
			slot = i
		}
	}
	if ax := st.buf.axes[slot]; ax != nil {
		return ax
	}
	ax := &axisIDs{name: name}
	switch name {
	case "pfail":
		if fd, ok := s.fdicts["pfail"]; ok {
			ax.ids, ax.pfail = fd.idx, fd.dict
			break
		}
		col := s.floats["pfail"]
		ids := resize(st.buf.pfailIDs, len(col))
		st.buf.pfailIDs = ids
		var a idAssigner[uint64]
		var last uint64
		var lastID uint32
		for r, v := range col {
			if b := math.Float64bits(v); r == 0 || b != last {
				last, lastID = b, a.id(b)
			}
			ids[r] = lastID
		}
		ax.ids, ax.pfail = ids, make([]float64, len(a.keys))
		for i, b := range a.keys {
			ax.pfail[i] = math.Float64frombits(b)
		}
	case "geometry":
		size, ways, block := s.ints["geom_size"], s.ints["geom_ways"], s.ints["geom_block"]
		ids := resize(st.buf.geomIDs, len(size))
		st.buf.geomIDs = ids
		var a idAssigner[[3]int64]
		var last [3]int64
		var lastID uint32
		for r := range ids {
			if k := [3]int64{size[r], ways[r], block[r]}; r == 0 || k != last {
				last, lastID = k, a.id(k)
			}
			ids[r] = lastID
		}
		ax.ids, ax.geom = ids, a.keys
	default: // dictionary axes: scheme, victim, granularity, policy, stream
		col := s.strs[name]
		ax.ids, ax.dict = col.idx, col.dict
	}
	ax.n = max(len(ax.dict), len(ax.pfail), len(ax.geom))
	st.buf.axes[slot] = ax
	return ax
}

// value renders id: its string plus, for the numeric axes, the sort
// key (pfail sorts by value, geometry by size/ways/block).
func (ax *axisIDs) value(id uint32) axisValue {
	if ax.done == nil {
		ax.rendered, ax.done = make([]axisValue, ax.n), make([]bool, ax.n)
	}
	if ax.done[id] {
		return ax.rendered[id]
	}
	var v axisValue
	switch ax.name {
	case "pfail":
		p := ax.pfail[id]
		v = axisValue{str: strconv.FormatFloat(p, 'g', -1, 64), nums: []float64{p}, numeric: true}
	case "geometry":
		g := ax.geom[id]
		v = axisValue{
			str:     fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]),
			nums:    []float64{float64(g[0]), float64(g[1]), float64(g[2])},
			numeric: true,
		}
	default:
		v = axisValue{str: ax.dict[id]}
		if ax.name == "policy" && v.str == "" {
			v.str = "none"
		}
	}
	ax.rendered[id], ax.done[id] = v, true
	return v
}

// idAssigner numbers keys densely in first-appearance order.
type idAssigner[K comparable] struct {
	keys []K
	m    map[K]uint32
}

func (a *idAssigner[K]) id(k K) uint32 {
	if a.m == nil {
		a.m = make(map[K]uint32)
	}
	id, ok := a.m[k]
	if !ok {
		id = uint32(len(a.keys))
		a.m[k] = id
		a.keys = append(a.keys, k)
	}
	return id
}

// finalize orders the groups canonically and aggregates each
// group×metric sample, releasing its segments once aggregated.
func (st *queryState) finalize() *Result {
	groups := make([]*groupAcc, 0, len(st.groups))
	for _, g := range st.groups {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return lessParts(groups[i].parts, groups[j].parts) })
	res := &Result{Rows: st.rows, Matched: st.matched, Groups: make([]Group, len(groups))}
	var sc aggScratch
	for gi, g := range groups {
		out := Group{Key: g.key, Cells: g.cells, Aggregates: make([]Aggregate, len(st.spec.Metrics))}
		for mi, name := range st.spec.Metrics {
			out.Aggregates[mi] = aggregate(name, g.vals[mi], &sc)
			g.vals[mi] = nil
		}
		res.Groups[gi] = out
	}
	return res
}

const (
	// minKeyed is the smallest sample aggregated from a count table or
	// sorted keys; below it, the set-up of either costs more than
	// sort.Float64s saves.
	minKeyed = 128
	// maxDistinct is the most distinct values a sample may hold to be
	// aggregated from a count table instead of sorted. Sweep columns
	// fixed by a cell's coordinates (capacity, operating point, trial
	// counts) hold a handful per group.
	maxDistinct = 64
	// tableBits sizes the count table at 2·maxDistinct slots, so it is
	// at most half full.
	tableBits = 7
)

// aggregate summarizes one sample, given as segments in scan order, as
// if it were concatenated and sorted ascending: the mean sums it in
// ascending order, which pins the float rounding to a row-order
// independent value, and the quantiles are nearest-rank order
// statistics (stats.QuantileRank). Three paths produce that answer
// bit-for-bit. A sample with at most maxDistinct distinct values is
// counted, not sorted; any other is radix-sorted as monotone uint64
// keys. Tiny samples, and any holding NaN (ordered first by
// sort.Float64s, split around the numbers by the key image) or negative
// zero (equal to +0 under comparison, a distinct key), are concatenated
// and sorted by sort.Float64s, whose order the other two reproduce only
// where no two distinct bit patterns compare equal.
func aggregate(metric string, segs [][]float64, sc *aggScratch) Aggregate {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	a := Aggregate{Metric: metric, Count: n}
	if n == 0 {
		return a
	}
	if n >= minKeyed {
		if distinct := sc.count(segs); distinct != nil {
			a.fromCounts(distinct)
			return a
		}
		if keys := sc.sortKeys(segs, n); keys != nil {
			a.fromKeys(keys)
			return a
		}
	}
	vals := sc.vals[:0]
	for _, s := range segs {
		vals = append(vals, s...)
	}
	sc.vals = vals
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	a.set(sum, func(i int) float64 { return vals[i] })
	return a
}

// set fills the summary of a Count-value sample from its ascending sum
// and at, which returns the sample's i-th smallest value.
func (a *Aggregate) set(sum float64, at func(i int) float64) {
	n := a.Count
	a.Mean = sum / float64(n)
	a.Min, a.Max = at(0), at(n-1)
	a.P50 = at(stats.QuantileRank(n, 0.50))
	a.P90 = at(stats.QuantileRank(n, 0.90))
	a.P99 = at(stats.QuantileRank(n, 0.99))
}

// fromKeys summarizes an ascending run of keys.
func (a *Aggregate) fromKeys(keys []uint64) {
	sum := 0.0
	for _, k := range keys {
		sum += fromKey(k)
	}
	a.set(sum, func(i int) float64 { return fromKey(keys[i]) })
}

// fromCounts summarizes a counted sample, given its distinct values in
// ascending order. Adding each
// distinct value count times, in ascending order, performs exactly the
// additions summing the sorted sample would.
func (a *Aggregate) fromCounts(distinct []keyCount) {
	sum := 0.0
	for _, d := range distinct {
		v := fromKey(d.key)
		for c := d.n; c > 0; c-- {
			sum += v
		}
	}
	a.set(sum, func(i int) float64 {
		d := 0
		for i >= distinct[d].n {
			i -= distinct[d].n
			d++
		}
		return fromKey(distinct[d].key)
	})
}

// keyCount is one distinct value of a counted sample: its key and how
// many times it occurs.
type keyCount struct {
	key uint64
	n   int
}

// aggScratch holds the buffers finalize reuses across every
// group×metric sample it aggregates: the radix sort's key buffers and
// byte histograms, the count table and its sorted distinct values, and
// the fallback's concatenated sample.
type aggScratch struct {
	keys, buf []uint64
	hist      [8][256]int

	slots    [1 << tableBits]uint64 // a key per slot, 0 = empty
	tally    [1 << tableBits]int
	distinct []keyCount

	vals []float64
}

// special reports whether b is the bit pattern of NaN or negative zero,
// the values sort.Float64s orders differently from their keys.
func special(b uint64) bool {
	return b == 1<<63 || b&^(1<<63) > 0x7ff0000000000000
}

// toKey maps float64 bits to a uint64 whose unsigned order is the
// float order: negative values have every bit flipped, the rest only
// the sign bit.
func toKey(b uint64) uint64 {
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromKey inverts toKey.
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// count tallies the sample in an open-addressing table and, if it holds
// at most maxDistinct distinct values and neither NaN nor negative
// zero, returns them in ascending order with their counts; otherwise
// nil. It gives up at the first value past the limit.
func (sc *aggScratch) count(segs [][]float64) []keyCount {
	const mask = len(sc.slots) - 1
	clear(sc.slots[:])
	clear(sc.tally[:])
	d := 0
	for _, s := range segs {
		for _, v := range s {
			b := math.Float64bits(v)
			if special(b) {
				return nil
			}
			k := toKey(b) // never 0: only a NaN maps there
			h := int(k * 0x9e3779b97f4a7c15 >> (64 - tableBits))
			for sc.slots[h] != k {
				if sc.slots[h] == 0 {
					if d == maxDistinct {
						return nil
					}
					sc.slots[h] = k
					d++
					break
				}
				h = (h + 1) & mask
			}
			sc.tally[h]++
		}
	}
	distinct := sc.distinct[:0]
	for h, k := range sc.slots {
		if k != 0 {
			distinct = append(distinct, keyCount{k, sc.tally[h]})
		}
	}
	slices.SortFunc(distinct, func(x, y keyCount) int { return cmp.Compare(x.key, y.key) })
	sc.distinct = distinct
	return distinct
}

// sortKeys returns the sample's keys in ascending order, or nil if it
// holds NaN or negative zero. One pass writes the keys and all eight
// byte histograms; an LSD radix sort then scatters only on the bytes
// that vary across the sample (the top ones do not, for a metric
// confined to a narrow range).
func (sc *aggScratch) sortKeys(segs [][]float64, n int) []uint64 {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
		sc.buf = make([]uint64, n)
	}
	keys, buf := sc.keys[:n], sc.buf[:n]
	hist := &sc.hist
	clear(hist[:])
	i := 0
	for _, s := range segs {
		for _, v := range s {
			b := math.Float64bits(v)
			if special(b) {
				return nil
			}
			k := toKey(b)
			keys[i] = k
			i++
			hist[0][byte(k)]++
			hist[1][byte(k>>8)]++
			hist[2][byte(k>>16)]++
			hist[3][byte(k>>24)]++
			hist[4][byte(k>>32)]++
			hist[5][byte(k>>40)]++
			hist[6][byte(k>>48)]++
			hist[7][byte(k>>56)]++
		}
	}
	for d := range hist {
		shift := uint(8 * d)
		count := &hist[d]
		if count[byte(keys[0]>>shift)] == n {
			continue // every key shares this byte
		}
		pos := 0
		for c, m := range count {
			count[c] = pos
			pos += m
		}
		for _, k := range keys {
			c := byte(k >> shift)
			buf[count[c]] = k
			count[c]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// lessParts compares group coordinates axis by axis: numeric axes by
// value, the rest lexically.
func lessParts(a, b []axisValue) bool {
	for i := range a {
		av, bv := a[i], b[i]
		if av.numeric && bv.numeric {
			for k := range av.nums {
				if k >= len(bv.nums) {
					break
				}
				if av.nums[k] != bv.nums[k] {
					return av.nums[k] < bv.nums[k]
				}
			}
			continue
		}
		if av.str != bv.str {
			return av.str < bv.str
		}
	}
	return false
}
