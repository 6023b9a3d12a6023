package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pgschema/internal/server"
	"pgschema/internal/validate"
)

// served is a running handler on a loopback listener.
type served struct {
	srv     *http.Server
	url     string
	snapDir string
	done    chan struct{}
}

// serverConfig mirrors the defaults of `pgschema serve -quiet
// -snapshot-dir DIR`: every workload persists, with an fsync per write.
func serverConfig(snapDir string) server.Config {
	return server.Config{
		RequestTimeout: 30 * time.Second,
		MaxInFlight:    1024,
		MaxBodyBytes:   server.DefaultMaxBodyBytes,
		SnapshotDir:    snapDir,
	}
}

// startServer takes the input files through the same path as `pgschema
// serve nodes.csv,edges.csv`: streamed validate-on-ingest, a registry
// seeded with the loaded tenant, its mux on a loopback listener. It
// returns once /healthz answers. wrap, when non-nil, wraps the mux.
func startServer(nodesPath, edgesPath, snapDir string, wrap func(http.Handler) http.Handler) (*served, error) {
	s, err := buildSchema()
	if err != nil {
		return nil, err
	}
	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	res, g, err := validate.ValidateStream(context.Background(), s, nf, ef,
		validate.Options{Program: validate.Compile(s)})
	if err != nil {
		return nil, fmt.Errorf("loading graph CSV: %w", err)
	}
	seed := server.TenantSeed{Name: server.DefaultTenant, Schema: s, Graph: g}
	if !res.Incomplete {
		seed.Result = res
	}
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	h, err := server.NewRegistry(server.RegistryConfig{Config: serverConfig(snapDir), Seeds: []server.TenantSeed{seed}})
	if err != nil {
		return nil, err
	}
	var handler http.Handler = h.Mux()
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:     "http://" + ln.Addr().String(),
		snapDir: snapDir,
		done:    make(chan struct{}),
	}
	go func() {
		defer close(sv.done)
		sv.srv.Serve(ln)
	}()
	if err := sv.waitHealthy(); err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

func (sv *served) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(sv.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and every connection, and waits for Serve
// to return.
func (sv *served) stop() {
	sv.srv.Close()
	<-sv.done
	http.DefaultClient.CloseIdleConnections()
}

// setupServer starts the server from the same files at least
// minSetups times, and more while the total stays under setupBudget (up
// to maxSetups), so that small graphs get enough reps for a steady
// median. It keeps the last server; every earlier one is stopped and
// its memory released first. It returns the set-up time of each start.
func setupServer(inputDir, workDir string) (*served, []float64, error) {
	var times []float64
	var total float64
	for i := 0; ; i++ {
		snapDir := filepath.Join(workDir, fmt.Sprintf("snap%d", i))
		start := time.Now()
		sv, err := startServer(filepath.Join(inputDir, "nodes.csv"), filepath.Join(inputDir, "edges.csv"), snapDir, nil)
		if err != nil {
			return nil, nil, err
		}
		t := time.Since(start).Seconds()
		times = append(times, t)
		total += t
		if len(times) >= maxSetups || (len(times) >= minSetups && total+t > setupBudget.Seconds()) {
			return sv, times, nil
		}
		sv.stop()
		releaseMemory()
	}
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// client sends requests and reads whole responses into a reused buffer.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string, tr *http.Transport) *client {
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
}

// do sends one operation and returns the status and the response body,
// which stays valid until the next call.
func (c *client) do(o *op, header map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// send issues one operation and checks its answer; an acknowledged
// write is also metered by amp when amp is non-nil. It returns when the
// request started and ended, the response size, and a failure
// description ("" when the answer is right).
func (c *client) send(o *op, ex *expectations, amp *diskMeter, header map[string]string) (start, end time.Time, size int, failure string) {
	start = time.Now()
	status, body, err := c.do(o, header)
	end = time.Now()
	if err != nil {
		return start, end, 0, fmt.Sprintf("%s: %v", kindNames[o.kind], err)
	}
	failure = ex.check(o, status, body)
	if o.kind == opWrite && failure == "" && amp != nil {
		amp.observe(len(o.body))
	}
	return start, end, len(body), failure
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// environment is the header every result carries: latencies are this
// machine's, under this runtime, over this filesystem.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	SnapshotFS string `json:"snapshot_fs"`
}

func readEnvironment(dir string) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		SnapshotFS: filesystemOf(dir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type of the mount holding dir, from
// the longest matching mount point in /proc/self/mountinfo.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fstype = mp, g[0]
		}
	}
	return fstype
}
