package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"waitfree/internal/logstore"
	"waitfree/internal/seqspec"
	"waitfree/internal/server"
	"waitfree/internal/wire"
)

// This file is the traced run: the server hosted in-process through
// server.New/Start with wfserver's configuration, driven by the same
// generator, followed by timed calls into each layer's public functions.
// Spans are recorded only here, around each client request and each timed
// call, kept in memory and written out when the run ends. Nothing inside
// the program is instrumented beyond the wfstats counters it already has.

// span is one traced interval, in nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // layer calls the span covers
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// requests records a phase's client requests as children of the phase's
// span, at most maxReqSpans of them (an even stride through the phase).
func (t *tracer) requests(phase int, reqs []reqSpan) {
	const maxReqSpans = 50_000
	base := t.spans[phase-1].Start
	stride := max(1, len(reqs)/maxReqSpans)
	for i := 0; i < len(reqs); i += stride {
		name := "client.get"
		if reqs[i].put {
			name = "client.put"
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: phase, Name: name,
			Start: base + reqs[i].start, End: base + reqs[i].end})
	}
}

// timeCalls times fn in chunks of calls long enough to dwarf the clock
// read, for about budget, recording each chunk as a span. It returns the
// median over chunks of nanoseconds per call.
func (t *tracer) timeCalls(name string, parent int, budget time.Duration, fn func(i int)) float64 {
	n, i := 1, 0
	var perCall []float64
	start := time.Now()
	for len(perCall) < 5 || time.Since(start) < budget {
		s := t.now()
		t0 := time.Now()
		for k := 0; k < n; k++ {
			fn(i)
			i++
		}
		d := time.Since(t0)
		if d < 50*time.Microsecond && n < 1<<20 {
			n *= 2
			continue
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: t.now(), Calls: n})
		perCall = append(perCall, float64(d.Nanoseconds())/float64(n))
	}
	return median(perCall)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced runs the workload against an in-process server and reports the
// per-layer metrics.
func traced(cfg runConfig) (*result, error) {
	serverInProcess = true
	w := cfg.w
	res := &result{}
	tr := &tracer{t0: time.Now()}
	root := tr.begin("run", 0)
	dir := cfg.dataDir(0)
	if dir != "" {
		defer os.RemoveAll(dir)
	}

	setup := tr.begin("phase.setup", root)
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", StatsAddr: "127.0.0.1:0",
		Shards: shards, Procs: procs, Dir: dir, SnapshotEvery: snapEvery})
	if err != nil {
		return nil, err
	}
	s.Start()
	stopped := false
	defer func() {
		if !stopped {
			s.Close()
		}
	}()
	statsAddr := s.StatsAddr().String()
	if err := checkConns(statsAddr, 0); err != nil {
		return nil, err
	}
	gens := cfg.gens()
	conns, err := dialAll(s.Addr().String(), gens)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	pre, err := closedLoop(conns, sliceSource(preloads(gens)), depth, 0, 0, false)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	res.tally.add(pre.tally)
	tr.end(setup)

	sp := tr.begin("phase.open", root)
	open, err := openLoop(conns, w.rate, cfg.openDur())
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	tr.requests(sp, open.spans)
	res.tally.add(open.tally)
	slices.Sort(open.lag)

	st1, err := fetchStats(statsAddr)
	if err != nil {
		return nil, err
	}
	ls1 := storeStats(s)
	// The saturation phase runs untraced, then traced; the throughput
	// difference between the halves is the tracing overhead.
	half := cfg.satDur() / 2
	un, err := closedLoop(conns, mixSource(conns), depth, half, half/10, false)
	if err != nil {
		return nil, err
	}
	res.tally.add(un.tally)
	sp = tr.begin("phase.saturation", root)
	tc, err := closedLoop(conns, mixSource(conns), depth, half, half/10, true)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	tr.requests(sp, tc.spans)
	res.tally.add(tc.tally)
	st3, err := fetchStats(statsAddr)
	if err != nil {
		return nil, err
	}
	ls3 := storeStats(s)
	rb, err := closedLoop(conns, sliceSource(readbacks(gens)), depth, 0, 0, false)
	if err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	res.tally.add(rb.tally)
	if err := checkConns(statsAddr, int64(cfg.conns)); err != nil {
		return nil, err
	}
	closeAll(conns)
	if err := s.Close(); err != nil {
		return nil, err
	}
	stopped = true

	// Ratios over the saturation phase, from /stats and Store.Stats.
	ops := delta(st1, st3, "server.ops")
	flushes := delta(st1, st3, "server.writer_flushes")
	writes := delta(st1, st3, "universal.cons_ops")
	hits, misses := delta(st1, st3, "universal.fast_read_hit"), delta(st1, st3, "universal.fast_read_miss")
	var maxShard, sumShard int64
	for i := 0; i < shards; i++ {
		d := delta(st1, st3, fmt.Sprintf("shard.ops.%d", i))
		maxShard = max(maxShard, d)
		sumShard += d
	}
	recsPerBatch := ratio(ls3.Records-ls1.Records, ls3.Batches-ls1.Batches)
	batchMean := ratio(sumDelta(st1, st3, "universal.batch_len"), delta(st1, st3, "universal.batch_len"))

	res.report("client.lag_p99_us", float64(quantile(open.lag, 0.99))/1e3, "us", fmt.Sprintf("n=%d", len(open.lag)))
	res.report("server.frames_per_flush", ratio(delta(st1, st3, "server.writer_frames"), flushes), "frames/flush", "")
	res.report("server.flushes_per_op", ratio(flushes, ops), "flushes/op", "")
	res.report("server.ops_refused", float64(st3["server.ops_refused"].Value), "count", "whole run")
	res.report("server.lease_miss", float64(st3["server.lease_miss"].Value), "count", "whole run")
	res.report("server.snapshots", float64(st3["server.snapshots"].Value), "count", "whole run")
	res.report("shard.imbalance_pct", 100*ratio(maxShard*shards, sumShard), "%", "hottest shard over the mean")
	res.report("core.fast_read_hit_frac", ratio(hits, hits+misses), "frac", "")
	res.report("core.snapshot_stores_per_write", ratio(delta(st1, st3, "universal.snapshot_stores"), writes), "stores/write", "")
	res.report("core.replay_len_mean", ratio(sumDelta(st1, st3, "universal.replay_len"), delta(st1, st3, "universal.replay_len")), "entries", "")
	res.report("core.batch_len_mean", batchMean, "ops", "")
	res.report("core.helped_frac", ratio(delta(st1, st3, "universal.helped"), writes), "frac", "")
	res.report("core.log_len", float64(st3["universal.log_len"].Value), "entries", "gauge at phase end")
	res.report("core.gc_scan_len_mean", ratio(sumDelta(st1, st3, "universal.gc_scan_len"), delta(st1, st3, "universal.gc_scan_len")), "entries", "")
	res.report("logstore.fsyncs_per_write", ratio(ls3.Fsyncs-ls1.Fsyncs, ls3.Records-ls1.Records), "fsyncs/write", "")
	res.report("logstore.records_per_batch", recsPerBatch, "records/batch", "")
	unOps, tcOps := iqm(un.windows), iqm(tc.windows)
	res.report("trace.overhead_frac", (unOps-tcOps)/unOps, "frac", fmt.Sprintf("untraced %.0f/s, traced %.0f/s", unOps, tcOps))

	// Timed calls into each layer, after the server has stopped, at the
	// workload's sizes.
	lc := tr.begin("phase.layers", root)
	wireNs := wireLayer(res, tr, lc, cfg)

	kv := s.KV()
	keys := gens[0].w.keys
	rng := newConnGen(w, cfg.seed^0x5eed, 0, 1)
	getNs := tr.timeCalls("shard.invoke_get", lc, 300*time.Millisecond, func(int) {
		kv.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{rng.next().key}})
	})
	putNs := tr.timeCalls("shard.invoke_put", lc, 300*time.Millisecond, func(int) {
		o := rng.put(rng.rng.Int64N(keys))
		kv.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{o.key, o.val}})
	})
	res.report("shard.invoke_get_ns", getNs, "ns", fmt.Sprintf("Sharded.Invoke at %d keys", keys))
	res.report("shard.invoke_put_ns", putNs, "ns", fmt.Sprintf("Sharded.Invoke at %d keys", keys))
	b := max(1, int(math.Round(batchMean)))
	var batch []seqspec.Op
	for k := int64(0); len(batch) < b; k++ {
		if kv.ShardOf(k) == 0 {
			batch = append(batch, seqspec.Op{Kind: "put", Args: []int64{k, tagValue(k, 1)}})
		}
	}
	out := make([]int64, b)
	batchNs := tr.timeCalls("shard.invoke_batch", lc, 300*time.Millisecond, func(int) {
		kv.InvokeBatch(0, procs, batch, out)
	}) / float64(b)
	res.report("shard.invoke_batch_ns_per_op", batchNs, "ns", fmt.Sprintf("InvokeBatch of %d", b))

	state := seqspec.KV{}.Init()
	perShard := keys / shards
	for k := int64(0); k < perShard; k++ {
		state.Apply(seqspec.Op{Kind: "put", Args: []int64{k, tagValue(k, 1)}})
	}
	cloneNs := tr.timeCalls("seqspec.clone", lc, 300*time.Millisecond, func(int) { state.Clone() })
	applyNs := tr.timeCalls("seqspec.apply", lc, 300*time.Millisecond, func(i int) {
		k := int64(i) % perShard
		state.Apply(seqspec.Op{Kind: "put", Args: []int64{k, tagValue(k, int64(i))}})
	})
	res.report("seqspec.clone_ns", cloneNs, "ns", fmt.Sprintf("KV state of %d keys", perShard))
	res.report("seqspec.apply_ns", applyNs, "ns", fmt.Sprintf("KV state of %d keys", perShard))

	appendP50 := 0.0
	if w.durable {
		if appendP50, err = storeLayer(res, tr, lc, cfg, dir, recsPerBatch, perShard); err != nil {
			return nil, err
		}
	} else {
		for _, m := range []struct{ name, unit string }{{"logstore.append_batch_us_p50", "us"}, {"logstore.append_batch_us_p99", "us"},
			{"logstore.snapshot_write_ms", "ms"}, {"logstore.live_files", "count"}, {"logstore.replay_s", "s"}} {
			res.report(m.name, 0, m.unit, "no store: in-memory workload")
		}
	}
	tr.end(lc)

	// Budget: the CPU time one operation costs end to end (both CPUs over
	// the untraced saturation throughput) against the layer calls it makes.
	e2e := float64(runtime.NumCPU()) * 1e9 / unOps
	perPut := putNs
	if w.durable {
		perPut = batchNs + appendP50*1e3/math.Max(recsPerBatch, 1)
	}
	layers := wireNs + w.getFrac*getNs + (1-w.getFrac)*perPut
	res.report("budget.unexplained_frac", (e2e-layers)/e2e, "frac",
		fmt.Sprintf("%.0fns/op end to end, %.0fns/op in timed layer calls", e2e, layers))

	tr.end(root)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

func storeStats(s *server.Server) logstore.Stats {
	if st := s.Store(); st != nil {
		return st.Stats()
	}
	return logstore.Stats{}
}

// wireLayer times the codec over the request stream connection 0 sends
// (regenerated from the seed) and returns the summed ns per operation.
func wireLayer(res *result, tr *tracer, parent int, cfg runConfig) float64 {
	const n = 1 << 16
	g := newConnGen(cfg.w, cfg.seed, 0, cfg.conns)
	g.preload()
	ops := make([]seqspec.Op, n)
	for i := range ops {
		o := g.next()
		args := make([]int64, 2)
		ops[i] = o.seqOp(args)
	}
	req := make([]byte, 0, n*32)
	resp := make([]byte, 0, n*24)
	encode := func(int) {
		req = req[:0]
		for i, o := range ops {
			at := len(req)
			req = append(req, 0, 0, 0, 0)
			req = wire.AppendRequest(req, uint64(i+1), o)
			l := len(req) - at - 4
			req[at], req[at+1], req[at+2], req[at+3] = byte(l>>24), byte(l>>16), byte(l>>8), byte(l)
		}
	}
	encNs := tr.timeCalls("wire.encode_req", parent, 200*time.Millisecond, encode) / n
	var decErr error
	decNs := tr.timeCalls("wire.decode_req", parent, 200*time.Millisecond, func(int) {
		d := wire.NewDecoder(bytes.NewReader(req))
		for {
			p, err := d.Next()
			if err != nil {
				if err != io.EOF {
					decErr = err
				}
				return
			}
			if _, _, err := wire.DecodeRequest(p); err != nil {
				decErr = err
			}
		}
	}) / n
	respNs := tr.timeCalls("wire.encode_resp", parent, 200*time.Millisecond, func(int) {
		resp = resp[:0]
		for i := range ops {
			resp = wire.AppendResponseFrame(resp, uint64(i+1), int64(i))
		}
	}) / n
	note := ""
	if decErr != nil {
		note = "decode error: " + decErr.Error()
		res.wrong++
	}
	res.report("wire.encode_req_ns", encNs, "ns", "")
	res.report("wire.decode_req_ns", decNs, "ns", note)
	res.report("wire.encode_resp_ns", respNs, "ns", "")
	res.report("wire.bytes_per_op", float64(len(req)+len(resp))/n, "B", "request plus response frame")
	return encNs + decNs + respNs
}

// storeLayer measures the log store: a replay of the run's directory, and
// a standalone store on the same tmpfs taking appends at the run's mean
// group size and snapshots at the workload's per-shard size. It returns
// the AppendBatch p50 in microseconds.
func storeLayer(res *result, tr *tracer, parent int, cfg runConfig, dir string, recsPerBatch float64, perShard int64) (float64, error) {
	var replays []float64
	var live int64
	for i := 0; i < 3; i++ {
		sp := tr.begin("logstore.replay", parent)
		t0 := time.Now()
		st, err := logstore.Open(dir)
		if err != nil {
			return 0, err
		}
		if _, err := st.Snapshots(); err != nil {
			st.Close()
			return 0, err
		}
		if err := st.Replay(func(logstore.Record) error { return nil }); err != nil {
			st.Close()
			return 0, err
		}
		replays = append(replays, time.Since(t0).Seconds())
		live = st.Stats().LogFiles
		if err := st.Close(); err != nil {
			return 0, err
		}
		tr.end(sp)
	}
	res.report("logstore.live_files", float64(live), "count", "")
	res.report("logstore.replay_s", median(replays), "s", "Open+Snapshots+Replay, no KV apply")

	sdir := cfg.dataDir(1)
	defer os.RemoveAll(sdir)
	st, err := logstore.Open(sdir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	b := max(1, int(math.Round(recsPerBatch)))
	recs := make([]logstore.Record, b)
	var lat []int64
	start := time.Now()
	for seq := uint64(1); len(lat) < 200 || time.Since(start) < 500*time.Millisecond; {
		for i := range recs {
			k := int64(seq) % perShard
			recs[i] = logstore.Record{Shard: 0, Seq: seq, Op: seqspec.Op{Kind: "put", Args: []int64{k, tagValue(k, int64(seq))}}}
			seq++
		}
		sp := tr.begin("logstore.append_batch", parent)
		t0 := time.Now()
		if err := st.AppendBatch(recs); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
		tr.end(sp)
	}
	slices.Sort(lat)
	p50 := float64(quantile(lat, 0.5)) / 1e3
	res.report("logstore.append_batch_us_p50", p50, "us", fmt.Sprintf("batches of %d, n=%d", b, len(lat)))
	res.report("logstore.append_batch_us_p99", float64(quantile(lat, 0.99))/1e3, "us", fmt.Sprintf("batches of %d, n=%d", b, len(lat)))

	state := make(map[int64]int64, perShard)
	for k := int64(0); k < perShard; k++ {
		state[k] = tagValue(k, 1)
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		sp := tr.begin("logstore.write_snapshot", parent)
		t0 := time.Now()
		if err := st.WriteSnapshot(logstore.Snapshot{Shard: 0, Seq: uint64(i + 1), State: state}); err != nil {
			return 0, err
		}
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
	}
	res.report("logstore.snapshot_write_ms", median(snaps), "ms", fmt.Sprintf("%d keys", perShard))
	return p50, nil
}
