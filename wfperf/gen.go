package main

import (
	"math"
	"math/rand/v2"

	"waitfree/internal/seqspec"
)

// workload is one traffic mix. Every workload preloads all of its keys
// before it is timed, so a get never finds a key missing.
type workload struct {
	name    string
	keys    int64   // key space 0..keys-1
	getFrac float64 // share of gets; the rest are puts
	zipf    bool    // YCSB zipfian key choice (theta 0.99) instead of uniform
	durable bool    // run wfserver with -dir on tmpfs
	// rate is the open-loop phase's offered load in ops/s, a constant so
	// that every commit is measured at the same load. It sits well below
	// the workload's saturation throughput on the reference machine (see
	// README.md), where queueing does not yet swamp the service time.
	rate float64
}

var workloads = []workload{
	{name: "mem-read-small", keys: 1 << 10, getFrac: 0.95, rate: 200_000},
	{name: "mem-write-large", keys: 1 << 16, getFrac: 0.50, rate: 2_000},
	{name: "durable-zipf", keys: 1 << 14, getFrac: 0.50, zipf: true, durable: true, rate: 6_000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// anyTagged marks a get on a key another connection owns: its answer may be
// Empty or any value tagged with the key, but nothing more is known.
const anyTagged int64 = math.MinInt64

// op is one generated request with the answer the server must give.
// Every value a put writes is tagged with its key (tag(v) == key), and a
// put answers the key's previous value, so for a key the connection owns
// both gets and puts have one exact expected answer.
type op struct {
	key    int64
	put    bool
	val    int64 // the value a put writes
	expect int64 // exact expected answer, or anyTagged
}

func (o op) seqOp(args []int64) seqspec.Op {
	if o.put {
		args[0], args[1] = o.key, o.val
		return seqspec.Op{Kind: "put", Args: args[:2]}
	}
	args[0] = o.key
	return seqspec.Op{Kind: "get", Args: args[:1]}
}

// tagValue builds the n-th value a connection writes under key.
func tagValue(key, n int64) int64 { return key<<32 | n&0xffffffff }

// valueOK reports whether v is an acceptable answer for o.
func valueOK(o op, v int64) bool {
	if o.expect != anyTagged {
		return v == o.expect
	}
	return v == seqspec.Empty || (v >= 0 && v>>32 == o.key)
}

// connGen produces one connection's operation stream. Connection c of n
// owns the keys k with k%n == c: only it writes them, so it can predict
// every answer on them. The model is the last value this connection wrote
// per owned key; the server applies a connection's requests in order, so a
// get on an owned key must return the latest put sent before it.
type connGen struct {
	w       workload
	c, n    int64
	rng     *rand.Rand
	z       *zipfGen
	model   []int64 // last value written per key (owned keys only)
	written int64
}

func newConnGen(w workload, seed uint64, c, n int) *connGen {
	g := &connGen{w: w, c: int64(c), n: int64(n),
		rng:   rand.New(rand.NewPCG(seed, uint64(c)+1)),
		model: make([]int64, w.keys)}
	for k := range g.model {
		g.model[k] = seqspec.Empty
	}
	if w.zipf {
		g.z = newZipf(w.keys, 0.99)
	}
	return g
}

func (g *connGen) owns(k int64) bool { return k%g.n == g.c }

// put builds the next write to owned key k and advances the model.
func (g *connGen) put(k int64) op {
	g.written++
	o := op{key: k, put: true, val: tagValue(k, g.written), expect: g.model[k]}
	g.model[k] = o.val
	return o
}

// get builds a read of k with its expected answer.
func (g *connGen) get(k int64) op {
	if g.owns(k) {
		return op{key: k, expect: g.model[k]}
	}
	return op{key: k, expect: anyTagged}
}

// next draws the next operation of the workload's mix.
func (g *connGen) next() op {
	var k int64
	if g.z != nil {
		k = g.z.next(g.rng)
	} else {
		k = g.rng.Int64N(g.w.keys)
	}
	if g.rng.Float64() < g.w.getFrac {
		return g.get(k)
	}
	// A put moves the drawn key into this connection's partition, keeping
	// the key distribution up to the partition's granularity.
	return g.put(k - k%g.n + g.c)
}

// preload returns puts of every owned key, in ascending order.
func (g *connGen) preload() []op {
	ops := make([]op, 0, g.w.keys/g.n+1)
	for k := g.c; k < g.w.keys; k += g.n {
		ops = append(ops, g.put(k))
	}
	return ops
}

// readback returns gets of every owned key, each expecting the model.
func (g *connGen) readback() []op {
	ops := make([]op, 0, g.w.keys/g.n+1)
	for k := g.c; k < g.w.keys; k += g.n {
		ops = append(ops, g.get(k))
	}
	return ops
}

// zipfGen is the YCSB zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): rank 0 is the hottest key.
type zipfGen struct {
	n                   int64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int64, theta float64) *zipfGen {
	zeta := func(m int64) float64 {
		var s float64
		for i := int64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan, zeta2 := zeta(n), zeta(2)
	return &zipfGen{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half: 1 + math.Pow(0.5, theta)}
}

func (z *zipfGen) next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
