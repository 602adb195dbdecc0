// Command perfbench is the repository's service benchmark. It drives a
// self-served, durable server.Registry over loopback HTTP (and, on the
// burst workload, through Shard.ApplyAsync), measures end-to-end latency
// and throughput, checks every answer against an oracle, and with -trace 1
// decomposes the same workload into per-layer numbers read from the
// program's own counters and histograms.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// run's environment. See README.md in this directory for the workloads,
// the metric map and what is out of scope.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the service sees; every untraced run
// prints all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"write_ops_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"read_ops_s", "1/s"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics; every traced run prints all of
// them (a layer a workload does not exercise reads 0).
var perLayer = []metricSpec{
	{"server.publish_ms", "ms"},
	{"server.epoch_doc_nodes", "count"},
	{"server.epoch_rows", "count"},
	{"server.apply_ms", "ms"},
	{"server.queue_plan_ms", "ms"},
	{"server.batch_share", "ratio"},
	{"server.batch_size", "count"},
	{"server.batch_fallbacks", "count"},
	{"server.xpath_ms", "ms"},
	{"server.view_ms", "ms"},
	{"server.qcache_hit_ratio", "ratio"},
	{"server.qcache_invalidations", "count"},
	{"server.rewrite_hit_ratio", "ratio"},
	{"server.progcache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"http.write_overhead_ms", "ms"},
	{"http.read_overhead_ms", "ms"},
	{"http.read_bytes", "bytes"},
	{"wal.fsync_ms", "ms"},
	{"wal.fsyncs_per_stmt", "ratio"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_mb", "MiB"},
	{"wal.bytes_per_stmt", "bytes"},
	{"wal.write_amp", "ratio"},
	{"wal.recover_stmt_ms", "ms"},
	{"wal.recover_replayed", "count"},
	{"core.find_targets_ms", "ms"},
	{"core.compute_delta_ms", "ms"},
	{"core.get_expression_ms", "ms"},
	{"core.execute_update_ms", "ms"},
	{"core.update_lattice_ms", "ms"},
	{"core.targets_per_stmt", "count"},
	{"core.delta_items_per_stmt", "count"},
	{"core.terms_evaluated_per_stmt", "count"},
	{"core.rows_changed_per_stmt", "count"},
	{"go.alloc_mb_per_write", "MiB"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"write.unaccounted_ms", "ms"},
	{"read.unaccounted_ms", "ms"},
	{"fail_ratio", "ratio"},
}

// metric is one printed value.
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

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	docBytes int // document size; 0 = the workload's default (the self-test sets it)

	// corruptOracle perturbs one expected answer, so a correct program
	// must fail the run: the self-test's proof that the checks bite.
	corruptOracle bool

	workDir string // scratch root for data dirs and traces
	stdout  io.Writer
	stderr  io.Writer
}

func main() {
	cfg := config{stdout: os.Stdout, stderr: os.Stderr}
	var seed uint64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, serve or burst")
	flag.Uint64Var(&seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "scratch directory for data dirs and trace files")
	flag.Parse()
	cfg.seed = seed
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|serve|burst --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if _, err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errCheck marks a run whose outputs failed an oracle check: the result is
// still printed (with correct=false) and the exit status is non-zero.
var errCheck = errors.New("output check failed")

// run executes one workload end to end and prints the environment and
// result lines. A nil result means the run could not measure anything and
// printed nothing; a non-nil result with an error is a measured run whose
// checks failed.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, serve or burst)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if cfg.stderr == nil {
		cfg.stderr = io.Discard
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := newBench(cfg, w, dir)
	defer b.close()
	if err := b.execute(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.writeSpans(filepath.Join(cfg.workDir, "traces")); err != nil {
			return nil, err
		}
	}
	res := b.result()
	for _, e := range b.checkErrs {
		fmt.Fprintln(cfg.stderr, "check:", e)
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.stdout, b.envLine())
	fmt.Fprintln(cfg.stdout, string(line))
	if !res.Correct {
		return res, fmt.Errorf("%w: %d problem(s), first: %v", errCheck, len(b.checkErrs), b.checkErrs[0])
	}
	return res, nil
}
