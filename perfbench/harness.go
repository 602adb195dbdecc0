package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xivm/internal/client"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/server"
	"xivm/internal/wal"
)

// workload is one named traffic mix. setup builds the serving tenant and
// times it (setup_s); warm runs untimed traffic; load is the timed phase;
// check compares the final state against the oracles.
type workload struct {
	name         string
	docBytes     int
	primaryWrite bool // trace.overhead compares writes (else reads)
	setup        func(b *bench) error
	warm         func(ctx context.Context, b *bench) error
	load         func(ctx context.Context, b *bench) error
	check        func(ctx context.Context, b *bench)
}

var workloads = map[string]*workload{
	"ingest": ingestWorkload,
	"serve":  serveWorkload,
	"burst":  burstWorkload,
}

// class accumulates one timed operation class of the measured phase.
// Its percentiles and rate cover the whole timed phase.
type class struct {
	mu    sync.Mutex
	lat   []time.Duration // from send (closed loop) or due time (open loop)
	split [2][]time.Duration
	last  time.Time     // completion of the last op
	rt    time.Duration // Σ client round trips (excludes open-loop lateness)
	bytes int64         // Σ response body bytes
	hSum  atomic.Int64  // Σ server handler time seen by the HTTP wrapper
	hN    atomic.Int64
}

func (c *class) observe(lat, rt time.Duration, bytes int64, traced bool) {
	c.mu.Lock()
	c.lat = append(c.lat, lat)
	c.last = time.Now()
	i := 0
	if traced {
		i = 1
	}
	c.split[i] = append(c.split[i], lat)
	c.rt += rt
	c.bytes += bytes
	c.mu.Unlock()
}

func (c *class) n() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lat)
}

// rate is the class's completions per second, from the start of the timed
// phase to the last completion.
func (c *class) rate(start time.Time) float64 {
	if len(c.lat) == 0 {
		return 0
	}
	return float64(len(c.lat)) / c.last.Sub(start).Seconds()
}

// bench is one run's state.
type bench struct {
	cfg config
	w   *workload
	dir string

	m      *obs.Metrics
	spans  *spanStore // nil on untraced runs
	reg    *server.Registry
	hs     *http.Server
	served sync.WaitGroup
	base   string
	tr     *http.Transport
	cli    *client.Client
	db     *client.DB
	tenant string

	docXML   string
	docNodes int
	shape    docShape
	shard    *server.Shard // burst: the in-process write path

	// Input streams, each used by one load thread.
	mix          *ingestMix
	rmix         *readMix
	rlook, wlook *lookups
	waveRand     *rand.Rand
	lastVersion  uint64 // the writer's last ack version
	ackedInserts int    // burst: acked <c/> inserts

	setupTimes []time.Duration
	setupSnap  [2]obs.Snapshot

	measuring atomic.Bool
	loadStart time.Time
	writes    class
	reads     class
	lateMu    sync.Mutex
	late      []time.Duration

	attempted atomic.Int64
	failed    atomic.Int64
	stmtBytes atomic.Int64  // Σ statement text of acked writes
	curWrite  atomic.Uint64 // request ID of the write being applied
	ids       atomic.Uint64 // request and span IDs

	loadSnap [2]obs.Snapshot
	mem      [2]runtime.MemStats
	rssPeak  float64 // VmHWM at the end of the timed phase, MiB
	cpu      [2]cpuTicks

	queries   map[string]bool // distinct XPath queries issued
	queriesMu sync.Mutex

	checkMu   sync.Mutex
	checkErrs []error
}

func newBench(cfg config, w *workload, dir string) *bench {
	b := &bench{cfg: cfg, w: w, dir: dir, m: obs.New(), queries: map[string]bool{}}
	if cfg.trace {
		b.spans = newSpanStore()
	}
	return b
}

func (b *bench) docSize() int {
	if b.cfg.docBytes > 0 {
		return b.cfg.docBytes
	}
	return b.w.docBytes
}

const (
	setupReps = 3                       // timed set-ups per run; setup_s is their median
	warmup    = 1500 * time.Millisecond // untimed traffic before the timed phase
)

func (b *bench) failf(format string, args ...any) {
	b.checkMu.Lock()
	b.checkErrs = append(b.checkErrs, fmt.Errorf(format, args...))
	b.checkMu.Unlock()
}

// registryConfig is the durable registry every workload serves: default
// wal.Options (fsync on every append) and one fresh obs registry shared by
// the server, the WAL and every engine.
func (b *bench) registryConfig() server.RegistryConfig {
	engine := []core.Option{core.WithMetrics(b.m)}
	if b.spans != nil {
		engine = append(engine, core.WithTracer(engineTracer{b}))
	}
	return server.RegistryConfig{
		Shard:        server.Config{Metrics: b.m},
		DataDir:      filepath.Join(b.dir, "data"),
		WAL:          wal.Options{Metrics: b.m, Engine: engine},
		DefaultViews: viewSpecs(),
	}
}

// newRegistry opens (and, for a data dir holding tenants, recovers) the
// registry, timing the call as a benchmark span.
func (b *bench) newRegistry() (*server.Registry, time.Duration, error) {
	t0 := time.Now()
	reg, err := server.NewRegistry(b.registryConfig())
	d := time.Since(t0)
	b.spans.add(span{ID: b.ids.Add(1), Name: "perfbench.NewRegistry"}, t0, d)
	return reg, d, err
}

// serve exposes reg over loopback HTTP and builds the load client: at most
// nproc connections, no retries (a 429 is a failed op), and a transport
// that tags each request with its span ID and counts response bytes.
func (b *bench) serve(reg *server.Registry) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.reg = reg
	b.hs = &http.Server{Handler: b.wrapHandler(reg.Handler())}
	b.served.Add(1)
	go func() {
		defer b.served.Done()
		_ = b.hs.Serve(ln)
	}()
	b.base = "http://" + ln.Addr().String()
	conns := runtime.NumCPU()
	b.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	hc := &http.Client{Transport: &tagTransport{base: b.tr}, Timeout: 60 * time.Second}
	b.cli = client.New(b.base, client.WithHTTPClient(hc), client.WithRetries(0))
	return nil
}

func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if b.hs != nil {
		_ = b.hs.Shutdown(ctx)
		b.served.Wait()
	}
	if b.reg != nil {
		_ = b.reg.Shutdown(ctx)
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
}

// execute runs set-up, warm-up, the timed phase and the checks.
func (b *bench) execute() error {
	b.setupSnap[0] = b.m.Snapshot()
	if err := b.w.setup(b); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.setupSnap[1] = b.m.Snapshot()
	ctx := context.Background()
	if err := b.w.warm(ctx, b); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	// Every timed phase starts from a collected heap, so the garbage that
	// set-up and warm-up happened to leave does not move its GC timing.
	runtime.GC()
	var err error
	if b.loadSnap[0], err = b.fetchMetrics(ctx); err != nil {
		return err
	}
	runtime.ReadMemStats(&b.mem[0])
	b.cpu[0] = readCPUTicks()
	b.loadStart = time.Now()
	b.measuring.Store(true)
	loadErr := b.w.load(ctx, b)
	b.measuring.Store(false)
	runtime.ReadMemStats(&b.mem[1])
	b.cpu[1] = readCPUTicks()
	b.rssPeak = rssPeakMiB() // before the checks, whose memory is the oracle's
	if loadErr != nil {
		return fmt.Errorf("load: %w", loadErr)
	}
	if b.loadSnap[1], err = b.fetchMetrics(ctx); err != nil {
		return err
	}
	if b.writes.n() == 0 && b.reads.n() == 0 {
		return fmt.Errorf("no operation completed in the timed phase")
	}
	b.w.check(ctx, b)
	return nil
}

// fetchMetrics reads the program's whole metrics registry over
// GET /v1/metrics.
func (b *bench) fetchMetrics(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := (&http.Client{Transport: b.tr}).Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return snap, nil
}

// tracing reports whether spans are recorded right now. A traced run
// alternates 500ms slices with spans on and off, so trace.overhead compares
// two interleaved halves of the same run and drift cancels out.
func (b *bench) tracing() bool {
	if b.spans == nil {
		return false
	}
	if !b.measuring.Load() {
		return true
	}
	return (time.Since(b.loadStart)/(500*time.Millisecond))%2 == 1
}

// noteQuery records an issued XPath query for the final oracle pass.
func (b *bench) noteQuery(q string) {
	b.queriesMu.Lock()
	b.queries[q] = true
	b.queriesMu.Unlock()
}

// openLoop calls op at a fixed rate until the deadline, passing each op
// its due time; a late send is recorded as generator lateness, and ops time
// themselves from their due time so a stall is charged to every op it
// delays.
func (b *bench) openLoop(ctx context.Context, rate float64, until time.Time, op func(due time.Time)) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) || ctx.Err() != nil {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if b.measuring.Load() {
			b.lateMu.Lock()
			b.late = append(b.late, time.Since(due))
			b.lateMu.Unlock()
		}
		op(due)
	}
}

// spanKey carries a request's span ID through the client into the
// transport, which forwards it as a header so the server-side wrapper's
// span shares it.
type spanKey struct{}

type reqTag struct {
	id    uint64
	bytes int64
}

const spanHeader = "X-Perfbench-Span"

type tagTransport struct{ base *http.Transport }

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tag, _ := req.Context().Value(spanKey{}).(*reqTag)
	if tag != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(tag.id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && tag != nil {
		resp.Body = &countBody{ReadCloser: resp.Body, n: &tag.bytes}
	}
	return resp, err
}

type countBody struct {
	io.ReadCloser
	n *int64
}

func (c *countBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	*c.n += int64(n)
	return n, err
}

// wrapHandler times every data-plane request on the server side of the
// connection: the difference to the client's round trip is the HTTP
// layer's overhead.
func (b *bench) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		write := r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/update")
		if write {
			b.curWrite.Store(id)
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if id == 0 || !b.measuring.Load() {
			return
		}
		c := &b.reads
		if write {
			c = &b.writes
		}
		c.hSum.Add(int64(d))
		c.hN.Add(1)
		if b.tracing() {
			b.spans.add(span{ID: b.ids.Add(1), Req: id, Parent: id, Name: "server.handler " + routeOf(r.URL.Path)}, t0, d)
		}
	})
}

func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/update"):
		return "update"
	case strings.HasSuffix(path, "/xpath"):
		return "xpath"
	case strings.Contains(path, "/views/"):
		return "view"
	}
	return path
}

// call runs one client request as a span: it allocates the request ID,
// tags the context, and returns the round trip and response bytes.
func (b *bench) call(ctx context.Context, name string, f func(ctx context.Context) error) (time.Duration, int64, error) {
	tag := &reqTag{id: b.ids.Add(1)}
	ctx = context.WithValue(ctx, spanKey{}, tag)
	traced := b.tracing()
	t0 := time.Now()
	err := f(ctx)
	d := time.Since(t0)
	if traced {
		b.spans.add(span{ID: tag.id, Req: tag.id, Name: name}, t0, d)
	}
	return d, tag.bytes, err
}

// write sends one statement over HTTP and records it. due is the open-loop
// due time, or the zero time for a closed-loop write.
func (b *bench) write(ctx context.Context, stmt string, due time.Time) error {
	b.attempted.Add(1)
	traced := b.tracing()
	var resp server.UpdateResponse
	rt, _, err := b.call(ctx, "client.update", func(ctx context.Context) error {
		var err error
		resp, err = b.db.Update(ctx, stmt)
		return err
	})
	if err != nil {
		b.failed.Add(1)
		return fmt.Errorf("update %q: %w", stmt, err)
	}
	lat := rt
	if !due.IsZero() {
		lat = time.Since(due)
	}
	b.ackVersion(resp.Version)
	b.stmtBytes.Add(int64(len(stmt)))
	if b.measuring.Load() {
		b.writes.observe(lat, rt, 0, traced)
	}
	return nil
}

// ackVersion checks that the writer's ack versions never decrease.
func (b *bench) ackVersion(v uint64) {
	if v < b.lastVersion {
		b.failf("ack version went backwards: %d after %d", v, b.lastVersion)
	}
	b.lastVersion = v
}

// readXPath and readView send one read over HTTP and record it.
func (b *bench) readXPath(ctx context.Context, q string, due time.Time) error {
	b.noteQuery(q)
	return b.read(ctx, "client.xpath", due, func(ctx context.Context) error {
		_, err := b.db.XPath(ctx, q)
		return err
	})
}

func (b *bench) readView(ctx context.Context, name string, due time.Time) error {
	return b.read(ctx, "client.view", due, func(ctx context.Context) error {
		_, err := b.db.View(ctx, name)
		return err
	})
}

func (b *bench) read(ctx context.Context, span string, due time.Time, f func(ctx context.Context) error) error {
	b.attempted.Add(1)
	traced := b.tracing()
	rt, n, err := b.call(ctx, span, f)
	if err != nil {
		b.failed.Add(1)
		return fmt.Errorf("%s: %w", span, err)
	}
	lat := rt
	if !due.IsZero() {
		lat = time.Since(due)
	}
	if b.measuring.Load() {
		b.reads.observe(lat, rt, n, traced)
	}
	return nil
}

// pct is the q-quantile of sorted durations in ms, by the Harrell–Davis
// estimator: a Beta((n+1)q, (n+1)(1-q))-weighted mean of all order
// statistics. Unlike a single order statistic it does not jump between the
// modes of a bimodal sample (a write that did or did not overlap a GC
// cycle), so small classes such as serve's 40 writes spread less from run
// to run.
func pct(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var sum float64
	prev := 0.0
	for i, d := range sorted {
		cur := betaInc(float64(i+1)/float64(n), a, b)
		sum += (cur - prev) * ms(d)
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (modified Lentz).
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func sorted(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

func median(xs []time.Duration) time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssPeakMiB reads the process's peak resident set (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// envLine records what the numbers were measured on.
func (b *bench) envLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":   b.w.name,
		"seed":       b.cfg.seed,
		"seconds":    b.cfg.seconds,
		"trace":      b.cfg.trace,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"fsync":      wal.Options{}.Sync.String(),
		"doc_bytes":  len(b.docXML),
		"doc_nodes":  b.docNodes,
		"writes":     b.writes.n(),
		"reads":      b.reads.n(),
		"steal_pct":  b.stealPct(),
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	return string(line)
}

// cpuTicks is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already counted in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of the machine's CPU time that the hypervisor gave
// to other guests during the timed phase: a run with high steal measured a
// slower machine, whatever the code did.
func (b *bench) stealPct() float64 {
	total := b.cpu[1].total - b.cpu[0].total
	if total == 0 {
		return 0
	}
	return math.Round(1000*float64(b.cpu[1].steal-b.cpu[0].steal)/float64(total)) / 10
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
