// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded property graph as a CSV pair, starts the real
// serving path on a loopback listener (streamed validate-on-ingest, the
// tenant registry, Handler.Mux), drives it with closed-loop clients,
// checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload query_read --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead replays the workload's stream with one
// client, records spans at the layer boundaries, and reports per-layer
// metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/server"
)

// workload is one traffic mix over one generated graph.
type workload struct {
	name         string
	nodesPerType int // nodes per object type; ~7 graph elements each
	violations   int // injected violations
	hotKeys      int // distinct Zipf-distributed lookup keys
	heavy        opKind
	// lookupTail and heavyTail are the tail percentiles reported, fixed
	// so that runs compare like with like: the highest with ten samples
	// beyond it at the workload's usual counts, except validate_full's
	// lookups, whose p99 sits on the cliff of the collections that
	// follow each validation and spreads by half across seeds.
	lookupTail, heavyTail float64
	// clients are the closed loops of the measured run; the traced run
	// replays the first one's mix.
	clients []mix
}

var workloads = []workload{
	{
		// The read path: HTTP decode/encode, tenant read lock, plan
		// cache hits and misses, Plan.Execute. No writes, so a change
		// to the write path should leave it unchanged.
		name: "query_read", nodesPerType: 15_000, hotKeys: maxHotKeys, heavy: opScan, lookupTail: 0.999, heavyTail: 0.99,
		clients: []mix{{opLookup: 0.88, opScan: 0.10, opMiss: 0.02}, {opLookup: 0.88, opScan: 0.10, opMiss: 0.02}},
	},
	{
		// The write path: Apply, incremental revalidation, a full
		// .pgsnap rewrite with fsync per write, and lookups that rebind
		// their plans after every epoch bump. One client, so the write
		// latency is not a lock convoy's.
		name: "write_mix", nodesPerType: 15_000, hotKeys: maxHotKeys, heavy: opWrite, lookupTail: 0.99, heavyTail: 0.95,
		clients: []mix{{opWrite: 0.2, opLookup: 0.78, opMiss: 0.02}},
	},
	{
		// The paper's core operation at 10⁶ elements with planted
		// violations, on the work-stealing scheduler. One client, so each
		// validation has both cores; it interleaves lookups on few hot keys
		// (each cached plan holds its own ~10 MB key index at this size).
		name: "validate_full", nodesPerType: 143_000, violations: 200, hotKeys: 16, heavy: opValidate, lookupTail: 0.95, heavyTail: 0.95,
		clients: []mix{{opValidate: 0.2, opLookup: 0.78, opMiss: 0.02}},
	},
}

// A run sets the server up between minSetups and maxSetups times, as
// many as fit in setupBudget; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run keeps on disk for the comparator: the result
// plus everything needed to read it.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       int                `json:"trace"`
	Env         environment        `json:"env"`
	FailedRatio float64            `json:"failed_ratio"`
	Samples     map[string]int     `json:"samples,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
	result
}

// spec is the part of BENCHMARK.json that names the metrics a run
// prints, with their units. The benchmark runs from the repository root,
// where BENCHMARK.json lives.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &sp, nil
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: query_read, write_mix or validate_full")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and operation streams")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 replays the stream traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for inputs, results and span files")
	genDir := flag.String("gen", "", "internal: generate the inputs into this directory and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *workloadName {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload query_read|write_mix|validate_full, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if *genDir != "" {
		if err := generateInputs(*w, *seed, *genDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generating inputs:", err)
			os.Exit(1)
		}
		return
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := sp.EndToEnd
	if *trace == 1 {
		metrics = sp.PerLayer
	}
	rec, err := run(*w, *seed, *seconds, *trace == 1, *out, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func run(w workload, seed int64, seconds int, traced bool, out string, metrics []specMetric) (*record, error) {
	workDir := filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	inputDir := filepath.Join(workDir, "input")
	if err := os.MkdirAll(inputDir, 0o755); err != nil {
		return nil, err
	}
	// Generation runs in a child process before any clock starts, so
	// this process's peak RSS never includes the generator's graph.
	cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-gen", inputDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("input generator: %w", err)
	}
	meta, err := readMeta(inputDir)
	if err != nil {
		return nil, err
	}
	env := readEnvironment(workDir)
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)
	fmt.Printf("# workload %s seed %d: %d nodes, %d edges, %d reference violations\n",
		w.name, seed, meta.Nodes, meta.Edges, len(meta.Reference))

	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Env: env}
	dur := time.Duration(seconds) * time.Second
	var values map[string]float64
	if traced {
		rec.Trace = 1
		values, err = runTraced(w, seed, dur, inputDir, workDir, out, meta, rec)
	} else {
		values, err = runMeasured(w, seed, dur, inputDir, workDir, meta, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Metrics = map[string]metric{}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok {
			rec.Failed++
			rec.Failures = append(rec.Failures, m.Name+": not measured")
		}
		rec.Metrics[m.Name] = metric{v, m.Unit}
	}
	rec.Correct = rec.Failed == 0
	rec.FailedRatio = float64(rec.Failed) / float64(rec.Attempted)
	fmt.Printf("# attempted %d, failed %d, failed_ratio %g\n", rec.Attempted, rec.Failed, rec.FailedRatio)
	for _, f := range rec.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	for _, m := range metrics {
		fmt.Printf("# %-32s %14.6g %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
	}
	if err := saveRecord(rec, out); err != nil {
		return nil, err
	}
	return rec, nil
}

func saveRecord(rec *record, out string) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	fmt.Printf("# result file %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

// tally collects latencies and failures from concurrent clients.
type tally struct {
	mu        sync.Mutex
	lat       [numKinds][]float64 // ms
	attempted int64
	failed    int64
	failures  []string
}

func (t *tally) add(kind opKind, ms float64, failure string, keep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if failure != "" {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, failure)
		}
		return
	}
	if keep {
		t.lat[kind] = append(t.lat[kind], ms)
	}
}

// runMeasured is the untraced run: set-up reps, a warm-up, then the
// workload's clients in closed loops for dur.
func runMeasured(w workload, seed int64, dur time.Duration, inputDir, workDir string, meta *inputMeta, rec *record) (map[string]float64, error) {
	sv, setupTimes, err := setupServer(inputDir, workDir)
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
	tr := newTransport()
	defer tr.CloseIdleConnections()
	t := &tally{}

	warmUp(sv, tr, ks, ex, t)
	runClients(w, sv, tr, ks, ex, amp, seed, min(2*time.Second, dur/5), t, false)
	measured := runClients(w, sv, tr, ks, ex, amp, seed+1, dur, t, true)
	rss := peakRSSMB()
	sv.stop()
	stopped = true
	tr.CloseIdleConnections()
	if w.heavy == opWrite {
		for _, f := range checkDurability(sv.snapDir, ex) {
			t.add(opWrite, 0, f, false)
		}
		fmt.Printf("# write_amp %.6g (%d bytes written to the snapshot directory / %d bytes of write bodies)\n",
			amp.amp(), amp.written, amp.body)
	}

	rec.Attempted, rec.Failed, rec.Failures = t.attempted, t.failed, t.failures
	rec.Samples = map[string]int{}
	for k := opKind(0); k < numKinds; k++ {
		if n := len(t.lat[k]); n > 0 {
			rec.Samples[kindNames[k]] = n
			fmt.Printf("# %-8s n=%-6d p50=%.4g p90=%.4g p95=%.4g p99=%.4g p99.9=%.4g ms\n", kindNames[k], n,
				quantile(t.lat[k], 0.5), quantile(t.lat[k], 0.9), quantile(t.lat[k], 0.95), quantile(t.lat[k], 0.99), quantile(t.lat[k], 0.999))
		}
	}
	var ops int
	for k := range t.lat {
		ops += len(t.lat[k])
	}
	for _, k := range []opKind{opLookup, opMiss, w.heavy} {
		if len(t.lat[k]) == 0 {
			rec.Failed++
			rec.Failures = append(rec.Failures, kindNames[k]+": no completed operations to measure")
		}
	}
	fmt.Printf("# setup: median of %d starts\n", len(setupTimes))
	fmt.Printf("# tails: lookup p%g with %d samples beyond, %s p%g with %d beyond\n",
		100*w.lookupTail, beyond(len(t.lat[opLookup]), w.lookupTail), kindNames[w.heavy], 100*w.heavyTail, beyond(len(t.lat[w.heavy]), w.heavyTail))
	rec.Extra = map[string]float64{"write_amp": amp.amp()}
	return map[string]float64{
		"setup_s":          median(setupTimes),
		"throughput_ops_s": float64(ops) / measured.Seconds(),
		"lookup_p50_ms":    quantile(t.lat[opLookup], 0.5),
		"lookup_tail_ms":   quantile(t.lat[opLookup], w.lookupTail),
		"miss_p50_ms":      quantile(t.lat[opMiss], 0.5),
		"heavy_p50_ms":     quantile(t.lat[w.heavy], 0.5),
		"heavy_tail_ms":    quantile(t.lat[w.heavy], w.heavyTail),
		"peak_rss_mb":      rss,
	}, nil
}

// warmUp looks up every hot key once, so that no measured lookup pays
// for building its plan; the timed warm-up that follows lets the rest of
// the lazy state fill.
func warmUp(sv *served, tr *http.Transport, ks *keyspace, ex *expectations, t *tally) {
	c := newClient(sv.url, tr)
	for _, name := range ks.hot {
		o := readOp(opLookup, name)
		_, _, _, failure := c.send(&o, ex, nil, nil)
		t.add(opLookup, 0, failure, false)
	}
}

// runClients runs one closed loop per client of the workload until dur
// has passed, and returns the time until the last one finished.
func runClients(w workload, sv *served, tr *http.Transport, ks *keyspace, ex *expectations, amp *diskMeter, seed int64, dur time.Duration, t *tally, keep bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, m := range w.clients {
		wg.Add(1)
		go func(i int, m mix) {
			defer wg.Done()
			c := newClient(sv.url, tr)
			st := newOpStream(ks, m, seed*1000+int64(i))
			for time.Now().Before(deadline) {
				o := st.next()
				t0, t1, _, failure := c.send(&o, ex, amp, nil)
				t.add(o.kind, msBetween(t0, t1), failure, keep)
			}
		}(i, m)
	}
	wg.Wait()
	return time.Since(start)
}

func newExpectations(meta *inputMeta) *expectations {
	ex := &expectations{reference: meta.Reference, pages: map[int64]int64{}}
	ex.authors.Store(int64(meta.Authors))
	return ex
}

// checkDurability reopens the tenant's persisted snapshot, verifying
// every section, and confirms that the last acknowledged epoch and every
// acknowledged pages value and added author survived. Each miss is one
// failure.
func checkDurability(snapDir string, ex *expectations) []string {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.lastEpoch == 0 {
		return nil
	}
	path := filepath.Join(snapDir, server.TenantSnapshotFile(server.DefaultTenant))
	g, err := pg.OpenSnapshot(path, pg.Verify())
	if err != nil {
		return []string{fmt.Sprintf("durability: reopening %s: %v", filepath.Base(path), err)}
	}
	defer g.Close()
	var fails []string
	if g.Epoch() != ex.lastEpoch {
		fails = append(fails, fmt.Sprintf("durability: snapshot at epoch %d, last acknowledged %d", g.Epoch(), ex.lastEpoch))
	}
	for node, want := range ex.pages {
		v, ok := g.NodeProp(pg.NodeID(node), "pages")
		if !ok || v.AsInt() != want {
			fails = append(fails, fmt.Sprintf("durability: node %d pages %v, acknowledged %d", node, v, want))
		}
	}
	names := map[string]bool{}
	for _, id := range g.NodesLabeled("Author") {
		if v, ok := g.NodeProp(id, "name"); ok {
			names[v.AsString()] = true
		}
	}
	for _, name := range ex.added {
		if !names[name] {
			fails = append(fails, fmt.Sprintf("durability: added author %q missing", name))
		}
	}
	return fails
}

// diskMeter measures write amplification: after each acknowledged
// write it scans the snapshot directory; a file with a new inode counts
// in full, an appended file by its growth.
type diskMeter struct {
	dir     string
	mu      sync.Mutex
	files   map[string]fileState
	written int64
	body    int64
}

type fileState struct{ ino, size uint64 }

func newDiskMeter(dir string) *diskMeter {
	return &diskMeter{dir: dir, files: map[string]fileState{}}
}

func (d *diskMeter) observe(bodyBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.body += int64(bodyBytes)
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		st, ok := statFile(filepath.Join(d.dir, e.Name()))
		if !ok {
			continue
		}
		prev, seen := d.files[e.Name()]
		switch {
		case !seen || prev.ino != st.ino:
			d.written += int64(st.size)
		case st.size > prev.size:
			d.written += int64(st.size - prev.size)
		}
		d.files[e.Name()] = st
	}
}

// statFile returns the inode and size of a regular file.
func statFile(path string) (fileState, bool) {
	fi, err := os.Stat(path)
	if err != nil || !fi.Mode().IsRegular() {
		return fileState{}, false
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return fileState{}, false
	}
	return fileState{ino: uint64(st.Ino), size: uint64(fi.Size())}, true
}

func (d *diskMeter) amp() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.body == 0 {
		return 0
	}
	return float64(d.written) / float64(d.body)
}

// quantile is the nearest-rank quantile of the samples (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples above the nearest-rank quantile.
func beyond(n int, q float64) int {
	return n - int(float64(n)*q+0.999999)
}
