package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/query"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused it.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Value  float64 `json:"value,omitempty"` // a count the span produced: bytes, rows, violations
	kind   opKind
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func (tr *tracer) now() int64           { return int64(time.Since(tr.t0)) }
func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.t0)) }
func (tr *tracer) id() int64            { return tr.nextID.Add(1) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// spanHeader carries "<op> <parent> <kind>" from the client to the mux
// wrapper; requests without it are not traced.
const spanHeader = "X-Bench-Span"

// wrap times Mux().ServeHTTP as the server.mux span of traced requests.
func (tr *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(spanHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		next.ServeHTTP(w, r)
		end := tr.now()
		var op, parent int64
		var kind opKind
		fmt.Sscanf(h, "%d %d %d", &op, &parent, &kind)
		tr.add(span{ID: tr.id(), Parent: parent, Op: op, Kind: kindNames[kind], kind: kind, Name: "server.mux", Start: start, End: end})
	})
}

// replica is the benchmark's own tenant, built from the same input
// files: the traced run re-issues on it the library calls each
// operation implies, so they can be timed from outside the program.
type replica struct {
	s       *schema.Schema
	g       *pg.Graph
	prog    *validate.Program
	plans   *query.PlanCache
	last    *validate.Result
	boundAt map[*query.Plan]uint64
	dir     string
	sched   []*validate.SchedStats
}

// buildReplica loads the replica and times the set-up layers: schema
// build, program compile and streamed ingest, each the median of
// several reps.
func buildReplica(inputDir, dir string, layers map[string]float64) (*replica, error) {
	var buildMS, compileMS, ingestMS []float64
	var s *schema.Schema
	var prog *validate.Program
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		var err error
		if s, err = buildSchema(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		prog = validate.Compile(s)
		buildMS = append(buildMS, msBetween(t0, t1))
		compileMS = append(compileMS, msBetween(t1, time.Now()))
	}
	r := &replica{s: s, prog: prog, plans: query.NewPlanCache(s, 0), boundAt: map[*query.Plan]uint64{}, dir: dir}
	for i := 0; i < 3; i++ {
		r.g, r.last = nil, nil
		releaseMemory()
		nf, err := os.Open(filepath.Join(inputDir, "nodes.csv"))
		if err != nil {
			return nil, err
		}
		ef, err := os.Open(filepath.Join(inputDir, "edges.csv"))
		if err != nil {
			nf.Close()
			return nil, err
		}
		t0 := time.Now()
		res, g, err := validate.ValidateStream(context.Background(), s, nf, ef, validate.Options{Program: prog})
		ingestMS = append(ingestMS, msBetween(t0, time.Now()))
		nf.Close()
		ef.Close()
		if err != nil {
			return nil, err
		}
		r.g, r.last = g, res
	}
	layers["schema.build_ms"] = median(buildMS)
	layers["validate.compile_ms"] = median(compileMS)
	layers["validate.ingest_ms"] = median(ingestMS)
	return r, os.MkdirAll(dir, 0o755)
}

// msBetween is the time from a to b in milliseconds.
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// do re-issues the library calls of one operation. With a tracer the
// calls become spans of op, children of parent; without one they only
// keep the replica in step with the server. A non-empty result names a
// failure.
func (r *replica) do(o *op, tr *tracer, opID, parent int64) string {
	timed := func(name string, fn func() float64) {
		var start int64
		if tr != nil {
			start = tr.now()
		}
		v := fn()
		if tr != nil {
			tr.add(span{ID: tr.id(), Parent: parent, Op: opID, Kind: kindNames[o.kind], kind: o.kind,
				Name: name, Start: start, End: tr.now(), Value: max(v, 0)})
		}
	}
	ctx := context.Background()
	switch o.kind {
	case opLookup, opMiss, opScan:
		var plan *query.Plan
		var err error
		var hit bool
		timed("query.plan_get", func() float64 {
			plan, hit, err = r.plans.Get(o.query)
			if hit {
				return 1
			}
			return 0
		})
		if err != nil {
			return fmt.Sprintf("replica plan: %v", err)
		}
		fresh := r.boundAt[plan] != r.g.Epoch()
		var data map[string]any
		timed("query.execute", func() float64 {
			data, err = plan.Execute(ctx, r.g, "")
			if rows, ok := data["allAuthors"].([]any); ok {
				return float64(len(rows))
			}
			return -1
		})
		if err != nil {
			return fmt.Sprintf("replica execute: %v", err)
		}
		if fresh {
			// The first execution at an epoch binds the plan; a second one
			// gives the steady cost the binding is measured against.
			r.boundAt[plan] = r.g.Epoch()
			timed("query.execute.steady", func() float64 {
				_, err = plan.Execute(ctx, r.g, "")
				return -1
			})
		}
	case opWrite:
		var u *pg.Undo
		var err error
		timed("pg.apply", func() float64 {
			u, err = r.g.Apply(o.write.delta())
			return -1
		})
		if err != nil {
			return fmt.Sprintf("replica apply: %v", err)
		}
		timed("pg.snapshot", func() float64 { r.g.Snapshot(); return -1 })
		timed("validate.revalidate", func() float64 {
			res := validate.Revalidate(ctx, r.s, r.g, r.last, validate.DeltaFor(u.Touched()),
				validate.Options{Program: r.prog, CollectTimings: true})
			if !res.Incomplete {
				r.last = res
			}
			return -1
		})
		timed("pg.write_snapshot", func() float64 {
			var n int64
			n, err = writeSnapshotFile(r.g, filepath.Join(r.dir, "replica.pgsnap"))
			return float64(n)
		})
		if err != nil {
			return fmt.Sprintf("replica snapshot: %v", err)
		}
	case opValidate:
		var res *validate.Result
		timed("validate.full", func() float64 {
			res = validate.Validate(r.s, r.g, validate.Options{Program: r.prog})
			return float64(len(res.Violations))
		})
		if !res.Incomplete {
			r.last = res
		}
		// Scheduler telemetry costs clock reads per chunk, so it comes
		// from a separate, untimed run.
		if tr != nil && len(r.sched) < probePairs {
			if st := validate.Validate(r.s, r.g, validate.Options{Program: r.prog, SchedStats: true}).Sched; st != nil {
				r.sched = append(r.sched, st)
			}
		}
	}
	return ""
}

// writeSnapshotFile persists the graph the way the server does: a temp
// file in the same directory, fsync, rename. It returns the file size.
func writeSnapshotFile(g *pg.Graph, path string) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".replica-*.pgsnap")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if err := pg.WriteSnapshot(tmp, g.Snapshot()); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	fi, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	return fi.Size(), os.Rename(tmp.Name(), path)
}

// goStats is a process-wide runtime/metrics reading.
type goStats struct{ allocBytes, gcCycles, gcPauseCPU float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goStats{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

// tracedHeapLimit is the traced run's soft memory limit.
const tracedHeapLimit = 3 << 30

// probePairs is how many untraced and traced operations the traced run
// adds for each class the workload's own stream lacks, so every layer
// is measured on every workload's graph.
const probePairs = 8

// runTraced replays the workload's stream with one client: first
// untraced (phase A, whose latencies and runtime statistics are the
// baseline), then traced (phase B), then probes of the missing classes.
func runTraced(w workload, seed int64, dur time.Duration, inputDir, workDir, out string, meta *inputMeta, rec *record) (map[string]float64, error) {
	// The replica doubles the live heap; a soft limit keeps the
	// collector from doubling it again at validate_full's size.
	debug.SetMemoryLimit(tracedHeapLimit)
	tr := &tracer{t0: time.Now()}
	layers := map[string]float64{}
	rep, err := buildReplica(inputDir, filepath.Join(workDir, "replica"), layers)
	if err != nil {
		return nil, err
	}
	sv, err := startServer(filepath.Join(inputDir, "nodes.csv"), filepath.Join(inputDir, "edges.csv"),
		filepath.Join(workDir, "snap"), tr.wrap)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.stop()
		}
	}()
	ks := newKeyspace(meta, w.hotKeys, seed)
	ex := newExpectations(meta)
	amp := newDiskMeter(sv.snapDir)
	transport := newTransport()
	defer transport.CloseIdleConnections()
	c := newClient(sv.url, transport)
	st := newOpStream(ks, w.clients[0], seed*1000+7)
	t := &tally{}
	var base, traced [numKinds][]float64

	issue := func(o *op, opID, clientID int64) (float64, bool) {
		var hdr map[string]string
		if opID != 0 {
			hdr = map[string]string{spanHeader: fmt.Sprintf("%d %d %d", opID, clientID, o.kind)}
		}
		start, end, size, failure := c.send(o, ex, amp, hdr)
		t.add(o.kind, 0, failure, false)
		if opID != 0 {
			tr.add(span{ID: clientID, Op: opID, Kind: kindNames[o.kind], kind: o.kind, Name: "client",
				Start: tr.at(start), End: tr.at(end), Value: float64(size)})
		}
		return msBetween(start, end), failure == ""
	}
	untracedOp := func(o *op) {
		if ms, ok := issue(o, 0, 0); ok {
			base[o.kind] = append(base[o.kind], ms)
		}
	}
	tracedOp := func(o *op) {
		opID, clientID := tr.id(), tr.id()
		if ms, ok := issue(o, opID, clientID); ok {
			traced[o.kind] = append(traced[o.kind], ms)
		}
		if f := rep.do(o, tr, opID, clientID); f != "" {
			t.add(o.kind, 0, f, false)
		}
	}

	// mirror keeps the replica in step with an untraced operation.
	mirror := func(o *op) {
		if f := rep.do(o, nil, 0, 0); f != "" {
			t.add(o.kind, 0, f, false)
		}
	}

	// Warm-up: every hot key once, then a short stretch of the stream.
	for _, name := range ks.hot {
		o := readOp(opLookup, name)
		issue(&o, 0, 0)
		mirror(&o)
	}
	for i := 0; i < 200; i++ {
		o := st.next()
		issue(&o, 0, 0)
		mirror(&o)
	}

	// Phase A: untraced. The replica catches up afterwards so that the
	// runtime statistics cover the server's work alone.
	var phaseA []op
	g0 := readGoStats()
	for deadline := time.Now().Add(dur * 2 / 5); time.Now().Before(deadline); {
		o := st.next()
		untracedOp(&o)
		phaseA = append(phaseA, o)
	}
	g1 := readGoStats()
	for i := range phaseA {
		mirror(&phaseA[i])
	}
	// Phase B: traced.
	for deadline := time.Now().Add(dur * 3 / 5); time.Now().Before(deadline); {
		o := st.next()
		tracedOp(&o)
	}
	// Probes: classes this workload's stream never sends.
	for k := opKind(0); k < numKinds; k++ {
		if w.clients[0][k] > 0 {
			continue
		}
		for i := 0; i < probePairs; i++ {
			o := st.make(k)
			untracedOp(&o)
			mirror(&o)
			o = st.make(k)
			tracedOp(&o)
		}
	}
	sv.stop()
	stopped = true
	if w.heavy == opWrite {
		for _, f := range checkDurability(sv.snapDir, ex) {
			t.add(opWrite, 0, f, false)
		}
	}

	var openMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		g, err := pg.OpenSnapshot(filepath.Join(rep.dir, "replica.pgsnap"))
		openMS = append(openMS, msBetween(t0, time.Now()))
		if err != nil {
			return nil, fmt.Errorf("reopening the replica snapshot: %w", err)
		}
		g.Close()
	}
	layers["pg.open_snapshot_ms"] = median(openMS)

	nA := 0
	for k := range base {
		nA += len(base[k])
	}
	if nA > 0 {
		kops := float64(nA) / 1000
		layers["go.alloc_bytes_per_op"] = (g1.allocBytes - g0.allocBytes) / float64(nA)
		layers["go.gc_cycles_per_kop"] = (g1.gcCycles - g0.gcCycles) / kops
		layers["go.gc_pause_ms_per_kop"] = (g1.gcPauseCPU - g0.gcPauseCPU) * 1000 / float64(runtime.GOMAXPROCS(0)) / kops
	}
	layers["pg.write_amp"] = amp.amp()
	spanLayers(tr.spans, rep, layers)
	for k := opKind(0); k < numKinds; k++ {
		if len(base[k]) > 0 && len(traced[k]) > 0 {
			layers["trace.overhead."+kindNames[k]] = median(traced[k]) / median(base[k])
		}
		fmt.Printf("# %-8s untraced n=%d p50=%.4g ms, traced n=%d p50=%.4g ms\n",
			kindNames[k], len(base[k]), median(base[k]), len(traced[k]), median(traced[k]))
	}

	spanPath, err := writeSpans(tr.spans, out, w.name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# span file %s (%d spans)\n", spanPath, len(tr.spans))
	rec.Attempted, rec.Failed, rec.Failures = t.attempted, t.failed, t.failures
	return layers, nil
}

// spanLayers turns the spans into per-layer medians. A layer's self
// time is its span minus the library spans of the same operation.
func spanLayers(spans []span, rep *replica, layers map[string]float64) {
	type opSpans struct {
		kind        opKind
		client, mux *span
		lib         []*span
	}
	ops := map[int64]*opSpans{}
	byName := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		o := ops[s.Op]
		if o == nil {
			o = &opSpans{kind: s.kind}
			ops[s.Op] = o
		}
		switch s.Name {
		case "client":
			o.client = s
		case "server.mux":
			o.mux = s
		default:
			o.lib = append(o.lib, s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	var mux, net, self, bytes [numKinds][]float64
	var bind []float64
	execMS := map[opKind][]float64{}
	for _, o := range ops {
		if o.client == nil || o.mux == nil {
			continue
		}
		k := o.kind
		mux[k] = append(mux[k], o.mux.ms())
		net[k] = append(net[k], o.client.ms()-o.mux.ms())
		bytes[k] = append(bytes[k], o.client.Value)
		lib := 0.0
		var exec, steady *span
		for _, s := range o.lib {
			switch s.Name {
			case "query.execute.steady":
				steady = s
				continue
			case "query.execute":
				exec = s
			}
			lib += s.ms()
		}
		self[k] = append(self[k], o.mux.ms()-lib)
		if exec != nil {
			execMS[k] = append(execMS[k], exec.ms())
			if steady != nil {
				bind = append(bind, exec.ms()-steady.ms())
			}
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		setMedian(layers, "server.mux_ms."+kindNames[k], mux[k])
		setMedian(layers, "server.net_ms."+kindNames[k], net[k])
		setMedian(layers, "server.self_ms."+kindNames[k], self[k])
		setMedian(layers, "server.response_bytes."+kindNames[k], bytes[k])
	}
	var hit, miss []float64
	for _, s := range byName["query.plan_get"] {
		if s.Value == 1 {
			hit = append(hit, s.ms())
		} else {
			miss = append(miss, s.ms())
		}
	}
	setMedian(layers, "query.plan_get_ms.hit", hit)
	setMedian(layers, "query.plan_get_ms.miss", miss)
	if n := len(hit) + len(miss); n > 0 {
		layers["query.plan_hit_ratio"] = float64(len(hit)) / float64(n)
	}
	setMedian(layers, "query.bind_ms", bind)
	setMedian(layers, "query.execute_ms.lookup", execMS[opLookup])
	setMedian(layers, "query.execute_ms.scan", execMS[opScan])
	var rows []float64
	for _, s := range byName["query.execute"] {
		if s.kind == opScan {
			rows = append(rows, s.Value)
		}
	}
	setMedian(layers, "query.rows.scan", rows)
	for name, metric := range map[string]string{
		"pg.apply": "pg.apply_ms", "pg.snapshot": "pg.snapshot_ms", "pg.write_snapshot": "pg.write_snapshot_ms",
		"validate.revalidate": "validate.revalidate_ms", "validate.full": "validate.full_ms",
	} {
		setMedian(layers, metric, durations(byName[name]))
	}
	setMedian(layers, "pg.snapshot_bytes", spanValues(byName["pg.write_snapshot"]))
	setMedian(layers, "validate.violations", spanValues(byName["validate.full"]))
	if full, ok := layers["validate.full_ms"]; ok && full > 0 {
		layers["validate.elems_per_s"] = float64(rep.g.NodeBound()+rep.g.EdgeBound()) / (full / 1000)
	}
	var workers, eff, steals, chunks []float64
	for _, st := range rep.sched {
		workers = append(workers, float64(st.Workers))
		eff = append(eff, st.Efficiency())
		steals = append(steals, float64(st.Steals))
		chunks = append(chunks, float64(st.Chunks))
	}
	setMedian(layers, "sched.workers", workers)
	setMedian(layers, "sched.efficiency", eff)
	setMedian(layers, "sched.steals", steals)
	setMedian(layers, "sched.chunks", chunks)
}

func setMedian(layers map[string]float64, name string, xs []float64) {
	if len(xs) > 0 {
		layers[name] = median(xs)
	}
}

func durations(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

func spanValues(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Value
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(spans []span, out, workload string, seed int64) (string, error) {
	dir := filepath.Join(out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
