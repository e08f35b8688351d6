package main

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"waitfree/internal/server"
	"waitfree/internal/wire"
)

// This file is the load generator: one server.Client per connection, a
// sender and a receiver goroutine on each, requests pipelined and matched
// back by id. Every response is checked against the connection's model.

// conn is one generator connection.
type conn struct {
	cl  *server.Client
	gen *connGen
	ids uint64 // requests sent so far; server.Client numbers them 1, 2, ...
}

func (c *conn) send(o op, args []int64) error {
	_, err := c.cl.Send(o.seqOp(args))
	c.ids++
	return err
}

// do sends one request and waits for its answer.
func (c *conn) do(o op) (int64, error) {
	var args [2]int64
	c.ids++
	return c.cl.Do(o.seqOp(args[:]))
}

// tally counts a phase's operations: attempted, failed (refused by the
// server) and wrong (answered with a value the model rules out).
type tally struct {
	attempted, failed, wrong int64
	firstWrong               string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstWrong == "" {
		t.firstWrong = o.firstWrong
	}
}

func (t *tally) check(o op, v int64, err error) {
	t.attempted++
	var re *wire.RemoteError
	switch {
	case errors.As(err, &re):
		t.failed++
	case !valueOK(o, v):
		t.wrong++
		if t.firstWrong == "" {
			kind := "get"
			if o.put {
				kind = "put"
			}
			t.firstWrong = fmt.Sprintf("%s key %d answered %d, expected %d", kind, o.key, v, o.expect)
		}
	}
}

// reqSpan is one client request as the generator saw it, in nanoseconds
// since the phase started.
type reqSpan struct {
	start, end int64
	put        bool
}

// openResult is an open-loop phase's outcome.
type openResult struct {
	tally
	lag   []int64   // ns the sender ran behind each request's due time
	spans []reqSpan // each answered request, from its due time to its answer
}

// Latency windows: each holds at least minWindow samples, so even its p99
// has ten samples beyond it; a phase has at most maxWindows of them.
const (
	minWindow  = 1000
	maxWindows = 40
)

// windowQuantiles splits one kind's latencies, in order of due time, into
// consecutive windows and returns, for each quantile in qs, every window's
// exact (nearest-rank) value in microseconds, and the number of samples.
func windowQuantiles(spans []reqSpan, put bool, qs []float64) (perQ [][]float64, n int) {
	var kind []reqSpan
	for _, s := range spans {
		if s.put == put {
			kind = append(kind, s)
		}
	}
	slices.SortFunc(kind, func(a, b reqSpan) int { return cmp.Compare(a.start, b.start) })
	n = len(kind)
	perQ = make([][]float64, len(qs))
	g := max(minWindow, n/maxWindows)
	lat := make([]int64, 0, 2*g)
	for i := 0; n-i >= g; {
		end := i + g
		if n-end < g {
			end = n // the last window takes the remainder
		}
		lat = lat[:0]
		for _, s := range kind[i:end] {
			lat = append(lat, s.end-s.start)
		}
		slices.Sort(lat)
		for j, q := range qs {
			perQ[j] = append(perQ[j], float64(quantile(lat, q))/1e3)
		}
		i = end
	}
	return perQ, n
}

// openLoop offers rate ops/s for dur, spread evenly over the connections:
// the global schedule's j-th request is due at j/rate and goes to
// connection j mod len(conns). The schedule and the operations are fixed
// before the clock starts, so a slow server receives the same requests,
// later. Each latency is measured from the request's due time.
func openLoop(conns []*conn, rate float64, dur time.Duration) (openResult, error) {
	defer quietGC()()
	total := int(rate * dur.Seconds())
	nc := len(conns)
	type plan struct {
		ops              []op
		due, sent, done  []int64
		base             uint64
		t                tally
		sendErr, recvErr error
	}
	plans := make([]*plan, nc)
	for c, cn := range conns {
		n := (total - c + nc - 1) / nc
		p := &plan{ops: make([]op, n), due: make([]int64, n), sent: make([]int64, n),
			done: make([]int64, n), base: cn.ids}
		for i := range p.ops {
			p.ops[i] = cn.gen.next()
			p.due[i] = int64(float64(i*nc+c) * 1e9 / rate)
		}
		plans[c] = p
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c, cn := range conns {
		p := plans[c]
		wg.Add(2)
		go func() {
			defer wg.Done()
			if p.sendErr = paceSend(cn, p.ops, p.due, p.sent, start); p.sendErr != nil {
				cn.cl.Close() // the receiver would wait for answers that never come
			}
		}()
		go func() {
			defer wg.Done()
			for got := 0; got < len(p.ops); got++ {
				id, v, err := cn.cl.Recv()
				now := int64(time.Since(start))
				var re *wire.RemoteError
				if err != nil && !errors.As(err, &re) {
					p.recvErr = err
					return
				}
				i := int(id - p.base - 1)
				if id <= p.base || i >= len(p.ops) || p.done[i] != 0 {
					p.recvErr = fmt.Errorf("response for unexpected request id %d", id)
					return
				}
				p.done[i] = now
				if err != nil {
					p.done[i] = -1
				}
				p.t.check(p.ops[i], v, err)
			}
		}()
	}
	wg.Wait()
	var r openResult
	for _, p := range plans {
		if p.sendErr != nil {
			return r, fmt.Errorf("open loop send: %w", p.sendErr)
		}
		if p.recvErr != nil {
			return r, fmt.Errorf("open loop receive: %w", p.recvErr)
		}
		r.add(p.t)
		for i, o := range p.ops {
			r.lag = append(r.lag, p.sent[i]-p.due[i])
			if p.done[i] < 0 {
				continue
			}
			r.spans = append(r.spans, reqSpan{start: p.due[i], end: p.done[i], put: o.put})
		}
	}
	return r, nil
}

// paceSend sends each request once it is due, flushing once per wakeup.
func paceSend(cn *conn, ops []op, due, sent []int64, start time.Time) error {
	p, err := newPacer()
	if err != nil {
		return err
	}
	defer p.close()
	var args [2]int64
	for i := 0; i < len(ops); {
		now := int64(time.Since(start))
		if due[i] > now {
			if err := p.sleep(due[i] - now); err != nil {
				return err
			}
			continue
		}
		for ; i < len(ops) && due[i] <= now; i++ {
			if err := cn.send(ops[i], args[:]); err != nil {
				return err
			}
			sent[i] = now
		}
		if err := cn.cl.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// pacer sleeps with microsecond precision. Go timers round short sleeps up
// to about a millisecond here, and a nanosleep syscall would pin one of
// the generator's two Ps; a timerfd read parks the goroutine in the
// netpoller instead, which wakes it within microseconds.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) sleep(ns int64) error {
	its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(ns)} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

// serverInProcess is set when the server shares this process's heap (the
// traced run); then the collector must keep running through every phase.
var serverInProcess bool

// quietGC collects the generator's garbage and turns its collector off
// until the returned function runs. A phase allocates little (a few
// bytes per request in server.Client.Send), and a collection in the
// generator mid-phase would stall senders and receivers on the shared
// CPUs, showing up as server latency.
func quietGC() func() {
	if serverInProcess {
		return func() {}
	}
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(prev) }
}

// ringSize bounds how far one response may overtake earlier ones on a
// connection (the server answers inline reads ahead of durable writes).
const ringSize = 1 << 14

// slot carries one in-flight request from sender to receiver; id is
// published last and cleared by the receiver, so it orders the handoff.
type slot struct {
	id   atomic.Uint64 // 0 while free
	o    op
	sent int64
	last bool // the end-of-phase marker request, not counted
}

// rateWindow is the interval over which a saturation phase counts
// completions; the phase reports one throughput per window.
const rateWindow = 100 * time.Millisecond

// closedResult is a closed-loop phase's outcome.
type closedResult struct {
	tally
	windows []float64 // ops/s in each rateWindow after the warm-up
	spans   []reqSpan
}

// closedLoop keeps up to depth requests in flight on every connection,
// taking operations from src(c) until it runs dry or, when dur > 0, until
// dur has passed. Throughput is counted per rateWindow over [warm, dur). With traced
// set, every request's send and completion times are kept as spans.
func closedLoop(conns []*conn, src func(c int) func() (op, bool), depth int, dur, warm time.Duration, traced bool) (closedResult, error) {
	defer quietGC()()
	nc := len(conns)
	type state struct {
		t       tally
		done    atomic.Int64
		spans   []reqSpan
		err     error
		sendErr error
	}
	states := make([]*state, nc)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c, cn := range conns {
		st := &state{}
		states[c] = st
		next := src(c)
		ring := make([]slot, ringSize)
		inflight := make(chan struct{}, depth) // one token per request in flight
		quit := make(chan struct{})            // closed if the receiver fails
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() {
				if st.sendErr != nil {
					cn.cl.Close() // the receiver would wait for the marker forever
				}
			}()
			var args [2]int64
			acquire := func() bool {
				select {
				case inflight <- struct{}{}:
					return true
				default:
				}
				if err := cn.cl.Flush(); err != nil {
					st.sendErr = err
					return false
				}
				select {
				case inflight <- struct{}{}:
					return true
				case <-quit:
					return false
				}
			}
			post := func(o op, last bool) bool {
				if !acquire() {
					return false
				}
				s := &ring[(cn.ids+1)%ringSize]
				if s.id.Load() != 0 {
					st.sendErr = fmt.Errorf("request %d overtaken by %d later ones", s.id.Load(), ringSize)
					return false
				}
				s.o, s.last = o, last
				if traced {
					s.sent = int64(time.Since(start))
				}
				s.id.Store(cn.ids + 1)
				if err := cn.send(o, args[:]); err != nil {
					st.sendErr = err
					return false
				}
				return true
			}
			for !stop.Load() {
				o, ok := next()
				if !ok {
					break
				}
				if !post(o, false) {
					return
				}
			}
			// The marker is the last request and is not counted: once its
			// answer is in and nothing else is in flight, the phase is over.
			if post(cn.gen.get(cn.gen.c), true) {
				if err := cn.cl.Flush(); err != nil {
					st.sendErr = err
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer close(quit)
			sawLast := false
			for {
				id, v, err := cn.cl.Recv()
				var re *wire.RemoteError
				if err != nil && !errors.As(err, &re) {
					st.err = err
					return
				}
				s := &ring[id%ringSize]
				if id == 0 || s.id.Load() != id {
					st.err = fmt.Errorf("response for unexpected request id %d", id)
					return
				}
				o, sent, last := s.o, s.sent, s.last
				s.id.Store(0)
				<-inflight
				if last {
					sawLast = true
				} else {
					st.t.check(o, v, err)
					if err == nil {
						st.done.Add(1)
					}
					if traced {
						st.spans = append(st.spans, reqSpan{start: sent, end: int64(time.Since(start)), put: o.put})
					}
				}
				if sawLast && len(inflight) == 0 {
					return
				}
			}
		}()
	}
	completed := func() int64 {
		var n int64
		for _, st := range states {
			n += st.done.Load()
		}
		return n
	}
	var r closedResult
	if dur > 0 {
		time.Sleep(warm)
		c0, t0 := completed(), time.Now()
		for end := t0.Add(dur - warm); t0.Before(end); {
			time.Sleep(rateWindow)
			c1, t1 := completed(), time.Now()
			r.windows = append(r.windows, float64(c1-c0)/t1.Sub(t0).Seconds())
			c0, t0 = c1, t1
		}
		stop.Store(true)
	}
	wg.Wait()
	for _, st := range states {
		if st.sendErr != nil {
			return r, fmt.Errorf("closed loop send: %w", st.sendErr)
		}
		if st.err != nil {
			return r, fmt.Errorf("closed loop receive: %w", st.err)
		}
		r.add(st.t)
		r.spans = append(r.spans, st.spans...)
	}
	return r, nil
}

// sliceSource feeds a closed loop from fixed per-connection lists.
func sliceSource(lists [][]op) func(c int) func() (op, bool) {
	return func(c int) func() (op, bool) {
		ops := lists[c]
		return func() (op, bool) {
			if len(ops) == 0 {
				return op{}, false
			}
			o := ops[0]
			ops = ops[1:]
			return o, true
		}
	}
}

// mixSource feeds a closed loop from the connections' workload generators.
func mixSource(conns []*conn) func(c int) func() (op, bool) {
	return func(c int) func() (op, bool) {
		g := conns[c].gen
		return func() (op, bool) { return g.next(), true }
	}
}

// dialAll opens one generator connection per generator.
func dialAll(addr string, gens []*connGen) ([]*conn, error) {
	conns := make([]*conn, 0, len(gens))
	for _, g := range gens {
		cl, err := server.Dial(addr)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		conns = append(conns, &conn{cl: cl, gen: g})
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.cl.Close()
	}
}
