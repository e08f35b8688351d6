// Command wfperf is the service tier's benchmark. It starts the real
// wfserver binary as a child process on ephemeral ports, drives it over
// TCP from one process with a pipelined load generator, checks every
// answer, and prints each metric with its unit, then one JSON line.
//
// Run it through run.sh, which builds wfserver and this program from the
// checkout and gives the durable workload a private tmpfs:
//
//	bash wfperf/run.sh --workload mem-read-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it hosts
// the server in-process (server.New/Start, same configuration, same
// generator) and reports per-layer numbers from /stats diffs and timed
// calls into each layer. See README.md for the workloads and metrics.
//
//wf:blocking benchmark harness: sockets, child processes and timers; makes no wait-freedom claims
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"waitfree/internal/seqspec"
)

// The service configuration every workload shares: wfserver's defaults.
const (
	shards    = 8
	procs     = 256 // wfserver -procs default
	snapEvery = 4096
	depth     = 64 // closed-loop requests in flight per connection
	maxRun    = 170 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload: mem-read-small, mem-write-large or durable-zipf")
	seed := flag.Uint64("seed", 1, "workload seed: the generated operations depend on it alone")
	seconds := flag.Float64("seconds", 10, "measured seconds: half open loop, half saturation")
	trace := flag.Int("trace", 0, "1 runs the traced, in-process run and reports per-layer metrics")
	bin := flag.String("server", "", "path of the wfserver binary")
	dataRoot := flag.String("data", ".bench_build/tmpfs", "directory for durable data (must be tmpfs)")
	traceDir := flag.String("trace-dir", ".bench_build/wfperf", "directory the traced run writes its spans to")
	flag.Parse()

	defer killChildren()
	// A run must end within three minutes even if a server hangs.
	watchdog := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "wfperf: run exceeded %v\n", maxRun)
		killChildren()
		os.Exit(1)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()

	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "wfperf: unknown workload %q\n", *wname)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "wfperf: --seconds must be at least 1")
		return 2
	}
	dataFS := "none"
	if w.durable {
		if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wfperf: %v\n", err)
			return 1
		}
		// The durable numbers are the latency of this machine's tmpfs, not a
		// device's: on the shared disk, fsync and unlink stall for seconds.
		if dataFS = fsType(*dataRoot); dataFS != "tmpfs" {
			fmt.Fprintf(os.Stderr, "wfperf: %s needs %s on tmpfs (it is %s); run through wfperf/run.sh\n", w.name, *dataRoot, dataFS)
			return 1
		}
	}
	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		bin: *bin, dataRoot: *dataRoot, traceDir: *traceDir, conns: min(2, runtime.NumCPU())}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d conns=%d depth=%d rate=%g keys=%d get_frac=%g zipf=%v durable=%v\n",
		w.name, *seed, *seconds, *trace, cfg.conns, depth, w.rate, w.keys, w.getFrac, w.zipf, w.durable)
	fmt.Println(machine(runtime.GOMAXPROCS(0), runtime.NumCPU(), dataFS))

	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(cfg)
	} else {
		if cfg.bin == "" {
			fmt.Fprintln(os.Stderr, "wfperf: --server is required")
			return 2
		}
		res, err = measured(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfperf: %v\n", err)
		return 1
	}
	if hwm, err := vmHWM(os.Getpid()); err == nil {
		fmt.Printf("generator peak RSS %.0f MB\n", hwm)
	}
	res.print()
	return 0
}

type runConfig struct {
	w        workload
	seed     uint64
	dur      time.Duration
	bin      string
	dataRoot string
	traceDir string
	conns    int
}

// The open loop gets two thirds of the measured time: its tail latencies
// need many more samples than the saturation phase's throughput does.
func (c runConfig) openDur() time.Duration { return c.dur * 2 / 3 }
func (c runConfig) satDur() time.Duration  { return c.dur - c.openDur() }

func (c runConfig) gens() []*connGen {
	gens := make([]*connGen, c.conns)
	for i := range gens {
		gens[i] = newConnGen(c.w, c.seed, i, c.conns)
	}
	return gens
}

// dataDir is a fresh durable data directory ("" for in-memory workloads).
func (c runConfig) dataDir(i int) string {
	if !c.w.durable {
		return ""
	}
	return filepath.Join(c.dataRoot, fmt.Sprintf("%s-%d-%d", c.w.name, os.Getpid(), i))
}

func (c runConfig) serverArgs(dir string) []string {
	args := []string{"-shards", fmt.Sprint(shards), "-procs", fmt.Sprint(procs), "-snap-every", fmt.Sprint(snapEvery)}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	return args
}

// result is what a run prints.
type result struct {
	tally
	metrics []metric
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) report(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *result) print() {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-32s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
		ms[m.name] = jm{m.value, m.unit}
	}
	fmt.Printf("ops attempted=%d failed=%d wrong=%d\n", r.attempted, r.failed, r.wrong)
	if r.firstWrong != "" {
		fmt.Println("first wrong answer:", r.firstWrong)
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.wrong == 0 && r.failed == 0, r.attempted, r.failed, ms})
	fmt.Println(string(out))
}

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtList(xs []float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g%s", x, unit)
	}
	return strings.Join(parts, " ")
}

// mustAlive fails if the server has exited on its own.
func mustAlive(srv *child, err error) error {
	if err != nil {
		return err
	}
	return srv.alive()
}

// instance is one wfserver process lineage (one data directory) and the
// generator's connections to it.
type instance struct {
	cfg   runConfig
	dir   string
	gens  []*connGen
	srv   *child
	conns []*conn
	rss   float64 // peak VmHWM over the lineage's processes, MB
}

// launch starts wfserver and dials the generator's connections, after
// checking that no other client has ever attached.
func (in *instance) launch() error {
	if err := in.start(); err != nil {
		return err
	}
	if err := checkConns(in.srv.statsAddr, 0); err != nil {
		return err
	}
	return in.dial(len(in.gens))
}

func (in *instance) start() error {
	srv, err := startServer(in.cfg.bin, in.cfg.serverArgs(in.dir), runtime.NumCPU())
	if err != nil {
		return err
	}
	in.srv = srv
	return nil
}

// dial dials the generator's connections up to the n-th.
func (in *instance) dial(n int) error {
	cs, err := dialAll(in.srv.addr, in.gens[len(in.conns):n])
	in.conns = append(in.conns, cs...)
	return err
}

// stop SIGKILLs the server, reading its peak RSS first.
func (in *instance) stop() {
	if in.srv != nil {
		if hwm, err := vmHWM(in.srv.cmd.Process.Pid); err == nil {
			in.rss = max(in.rss, hwm)
		}
		in.srv.kill()
		in.srv = nil
	}
	closeAll(in.conns)
	in.conns = nil
}

func (in *instance) close() {
	in.stop()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// setup launches a fresh server and preloads every key. It returns the
// time from launch until the last preload put is acknowledged.
func (in *instance) setup(res *result) (float64, error) {
	t0 := time.Now()
	if err := in.launch(); err != nil {
		return 0, err
	}
	pre, err := closedLoop(in.conns, sliceSource(preloads(in.gens)), depth, 0, 0, false)
	if err = mustAlive(in.srv, err); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	res.tally.add(pre.tally)
	return time.Since(t0).Seconds(), nil
}

// restart kills the server with SIGKILL and starts it again on the same
// directory. It returns the time from the launch until the first get,
// sent on the one connection dialed so far, is answered. That get must
// see the last write to its key; an in-memory server restarts empty.
// Only then does it check that no other client attached and dial the
// other connections.
func (in *instance) restart(res *result) (float64, error) {
	in.stop()
	t0 := time.Now()
	if err := in.start(); err != nil {
		return 0, err
	}
	if err := in.dial(1); err != nil {
		return 0, err
	}
	probe := in.conns[0].gen.get(0)
	if in.dir == "" {
		probe.expect = seqspec.Empty
	}
	v, err := in.conns[0].do(probe)
	if err != nil {
		return 0, fmt.Errorf("first get after restart: %w", err)
	}
	d := time.Since(t0).Seconds()
	res.tally.check(probe, v, nil)
	if err := checkConns(in.srv.statsAddr, 1); err != nil {
		return 0, err
	}
	return d, in.dial(len(in.gens))
}

// readback reads every key and checks it against the generator's model.
func (in *instance) readback(res *result) error {
	rb, err := closedLoop(in.conns, sliceSource(readbacks(in.gens)), depth, 0, 0, false)
	if err = mustAlive(in.srv, err); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	res.tally.add(rb.tally)
	return checkConns(in.srv.statsAddr, int64(len(in.conns)))
}

// latencyQuantiles are the per-window quantiles a run computes.
var latencyQuantiles = []float64{0.5, 0.9, 0.99}

// A run measures trials on fresh servers and summarises over all of them,
// so one unlucky process placement cannot move a metric. Five trials fit
// in a run unless set-up alone takes longer than slowSetup; then three.
const (
	maxTrials = 5
	minTrials = 3
	slowSetup = 2.0 // seconds
)

// Set-up is cheap on some workloads; those repeat it, for a steadier
// median, until maxSetups set-ups or setupBudget seconds.
const (
	maxSetups   = 15
	setupBudget = 1.5
)

// memRestarts is how many restarts each in-memory trial times.
const memRestarts = 12

// measured is the untraced run against the wfserver binary. Each trial
// sets up a fresh server, measures open-loop latency, (durable: crashes
// the server with kill -9 and times its recovery on the same directory),
// measures saturation throughput and reads every key back; in-memory
// trials then time restarts of the empty server.
func measured(cfg runConfig) (*result, error) {
	res := &result{}
	w := cfg.w
	trials := maxTrials
	var open, sat time.Duration
	var setups, recov, opsPerS, rss []float64
	lat := map[string][]float64{}
	var counts []string
	for t := 0; t < trials; t++ {
		in := &instance{cfg: cfg, dir: cfg.dataDir(t), gens: cfg.gens()}
		err := func() error {
			defer in.close()
			d, err := in.setup(res)
			if err != nil {
				return err
			}
			setups = append(setups, d)
			if t == 0 {
				if d > slowSetup {
					trials = minTrials
				}
				open, sat = cfg.openDur()/time.Duration(trials), cfg.satDur()/time.Duration(trials)
			}
			if err := checkConns(in.srv.statsAddr, int64(cfg.conns)); err != nil {
				return err
			}
			o, err := openLoop(in.conns, w.rate, open)
			if err = mustAlive(in.srv, err); err != nil {
				return err
			}
			res.tally.add(o.tally)
			slices.Sort(o.lag)
			fmt.Printf("trial %d open loop: %d ops at %g/s, generator lag p50 %.1fus p99 %.1fus\n", t+1, len(o.lag), w.rate,
				float64(quantile(o.lag, 0.5))/1e3, float64(quantile(o.lag, 0.99))/1e3)
			for _, kind := range []struct {
				name string
				put  bool
			}{{"get", false}, {"put", true}} {
				perQ, n := windowQuantiles(o.spans, kind.put, latencyQuantiles)
				if len(perQ[0]) == 0 {
					return fmt.Errorf("%d %s latencies; a window needs %d", n, kind.name, minWindow)
				}
				for j, q := range latencyQuantiles {
					name := fmt.Sprintf("%s_p%g_us", kind.name, q*100)
					lat[name] = append(lat[name], perQ[j]...)
				}
				counts = append(counts, fmt.Sprintf("%s n=%d in %d windows", kind.name, n, len(perQ[0])))
			}
			if w.durable {
				// Crash with every write acknowledged. The log holds the
				// preload plus the trial's scheduled open-loop writes, however
				// fast the server ran; every one must survive.
				d, err := in.restart(res)
				if err != nil {
					return fmt.Errorf("recovery: %w", err)
				}
				recov = append(recov, d)
				if err := in.readback(res); err != nil {
					return fmt.Errorf("after recovery: %w", err)
				}
			}
			s, err := closedLoop(in.conns, mixSource(in.conns), depth, sat, sat/10, false)
			if err = mustAlive(in.srv, err); err != nil {
				return err
			}
			res.tally.add(s.tally)
			opsPerS = append(opsPerS, s.windows...)
			if err := in.readback(res); err != nil {
				return err
			}
			for i := 0; !w.durable && i < memRestarts; i++ {
				d, err := in.restart(res)
				if err != nil {
					return fmt.Errorf("restart: %w", err)
				}
				recov = append(recov, d)
			}
			return nil
		}()
		rss = append(rss, in.rss)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t+1, err)
		}
	}
	for i, total := trials, sum(setups); len(setups) < maxSetups && total < setupBudget; i++ {
		in := &instance{cfg: cfg, dir: cfg.dataDir(i), gens: cfg.gens()}
		d, err := in.setup(res)
		in.close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		total += d
	}

	res.report("setup_s", median(setups), "s", fmt.Sprintf("median of %d: %s", len(setups), fmtList(setups, "s")))
	res.report("ops_per_s", iqm(opsPerS), "1/s", fmt.Sprintf("%d conns x depth %d, interquartile mean of %d %v windows", cfg.conns, depth, len(opsPerS), rateWindow))
	for _, name := range []string{"get_p50_us", "put_p50_us"} {
		res.report(name, iqm(lat[name]), "us", fmt.Sprintf("interquartile mean of %d windows", len(lat[name])))
	}
	// The tails are printed, not reported: on the reference machine their
	// run-to-run spread (p90 10-24 %, p99 25-80 %) reaches or exceeds any
	// bound a regression gate could use.
	for _, name := range []string{"get_p90_us", "put_p90_us", "get_p99_us", "put_p99_us"} {
		fmt.Printf("%-32s %14.6g us  (interquartile mean of %d windows; not gated)\n", name, iqm(lat[name]), len(lat[name]))
	}
	fmt.Printf("open-loop samples per trial: %s\n", strings.Join(counts, ", "))
	// A restart's time only grows with the host's jitter (exec, page faults,
	// wakeups); its 10th percentile tracks the program's own cost.
	slices.Sort(recov)
	res.report("recovery_s", recov[int(math.Ceil(0.1*float64(len(recov))))-1], "s",
		fmt.Sprintf("10th percentile of %d: %s", len(recov), fmtList(recov, "s")))
	// Printed, not reported: the server's peak RSS follows its garbage
	// collector's pacing and spread by up to 29 % between runs.
	fmt.Printf("%-32s %14.6g MB  (server VmHWM, median of trials %s; not gated)\n", "rss_peak_mb", median(rss), fmtList(rss, "MB"))
	return res, nil
}

// iqm is the interquartile mean: the mean of the middle half of xs.
func iqm(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return sum(s[lo:hi]) / float64(hi-lo)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func preloads(gens []*connGen) [][]op {
	lists := make([][]op, len(gens))
	for i, g := range gens {
		lists[i] = g.preload()
	}
	return lists
}

func readbacks(gens []*connGen) [][]op {
	lists := make([][]op, len(gens))
	for i, g := range gens {
		lists[i] = g.readback()
	}
	return lists
}
