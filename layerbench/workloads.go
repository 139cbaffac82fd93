package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/radio"
	"pds/internal/scenario"
	"pds/internal/wire"
)

// Deadlines of one operation, as the paper's figures bound them.
const (
	retrievalDeadline = 900 * time.Second
	discoveryDeadline = 180 * time.Second
)

// outcome is what one deployment's measured phase produced, after the
// output checks.
type outcome struct {
	ops, failed int
	recall      float64
	latencies   []time.Duration // sim latency samples
	overhead    uint64          // radio TxBytes over the run phase
	// row is the deployment's metric row in the shape pds-bench prints,
	// compared against the golden file by the fidelity anchor.
	row      metrics.Sample
	digest   uint64
	problems []string
}

// trial is one deployment of a workload: built by the workload's setup,
// then run once.
type trial interface {
	world() *world
	run()
	outcome() outcome
}

// workload is one named benchmark input.
type workload struct {
	name string
	// simDeployments is how many seeds a run cycles through (seed,
	// seed+1, ...); the allocation, heap and sim metrics come from the
	// first cycle, so they repeat for a seed however fast the host is.
	simDeployments int
	// anchor names the golden row the first deployment at seed 1 must
	// reproduce; nil for sizes that are not the paper's.
	anchor *anchorRow
	// item is the retrieved item key and publishedChunks its published
	// chunk copies (for the cached-chunk gauge).
	item            string
	publishedChunks int
	build           func(seed int64, pr *probe) trial
}

// workloads returns the benchmark's workloads at full or tiny size.
func workloads(tiny bool) []*workload {
	pdr := pdrConfig{rows: 10, cols: 10, itemBytes: 20 << 20, redundancy: 1}
	pdd := pddConfig{rows: 10, cols: 10, entries: 5000, redundancy: 1, consumers: 5}
	city := cityConfig{nodes: 2000, horizon: 15 * time.Minute, consumers: 32}
	// pdd-mixedcast needs 8 deployments for 40 latency samples, so that
	// the tail rule picks p75 rather than the median.
	pdrDeps, pddDeps, cityDeps := 5, 8, 3
	var pdrAnchor, pddAnchor *anchorRow
	if tiny {
		pdr = pdrConfig{rows: 5, cols: 5, itemBytes: 1 << 20, redundancy: 1}
		pdd = pddConfig{rows: 6, cols: 6, entries: 300, redundancy: 1, consumers: 3}
		city = cityConfig{nodes: 200, horizon: 3 * time.Minute, consumers: 8}
		pdrDeps, pddDeps, cityDeps = 2, 2, 2
	} else {
		pdrAnchor = &anchorRow{section: "PDR vs item size", x: 20, label: "20MB"}
		pddAnchor = &anchorRow{section: "simultaneous consumers", x: 5, label: "5 consumers"}
	}
	item := scenario.ItemDescriptor("clip", pdr.itemBytes, scenario.DefaultChunkSize)
	return []*workload{
		{name: "pdr-grid", simDeployments: pdrDeps, anchor: pdrAnchor, item: item.Key(),
			publishedChunks: item.TotalChunks() * pdr.redundancy, build: pdr.build},
		{name: "pdd-mixedcast", simDeployments: pddDeps, anchor: pddAnchor, build: pdd.build},
		{name: "city-discovery", simDeployments: cityDeps, build: city.build},
	}
}

// pickDistinct draws k distinct indices below n exactly as the scenario
// seeding helpers do, so placements match the paper figures' runs.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// buildGrid places rows×cols peers at the paper's spacing.
func buildGrid(seed int64, rows, cols int, pr *probe) *world {
	w := newWorld(seed, pr)
	for _, pos := range mobility.GridPositions(rows, cols, scenario.GridSpacing) {
		w.addPeer(pos)
	}
	return w
}

// digest accumulates a sim digest: FNV-1a over 64-bit words.
type digest struct{ words []uint64 }

func (d *digest) add(vs ...uint64) { d.words = append(d.words, vs...) }

func (d *digest) addStats(s radio.Stats, events uint64) {
	d.add(s.Transmissions, s.TxBytes, s.Delivered, s.Collisions, s.RandomLosses,
		s.BufferDrops, s.CorruptFrames, s.DupFrames, events)
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range d.words {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func keyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// --- pdr-grid ---------------------------------------------------------

type pdrConfig struct {
	rows, cols, itemBytes, redundancy int
}

// chunkByte is the published content of byte i of chunk c, the pattern
// scenario.DistributeChunks seeds.
func chunkByte(c, i int) byte { return byte(c + i) }

type pdrTrial struct {
	w        *world
	consumer *peer
	item     attr.Descriptor
	before   radio.Stats
	start    time.Duration
	arrivals []time.Duration
	res      core.RetrievalResult
	done     bool
}

// build is Fig 11's 20 MB point: chunks at redundancy 1 on every node
// but the centre one, which then retrieves the item.
func (c pdrConfig) build(seed int64, pr *probe) trial {
	w := buildGrid(seed, c.rows, c.cols, pr)
	t := &pdrTrial{w: w, consumer: w.peerByID(scenario.CenterID(c.rows, c.cols))}
	t.item = scenario.ItemDescriptor("clip", c.itemBytes, scenario.DefaultChunkSize)
	ids := make([]wire.NodeID, 0, len(w.peers))
	for _, p := range w.peers {
		if p != t.consumer {
			ids = append(ids, p.id)
		}
	}
	rng := rand.New(rand.NewSource(seed + 13))
	for ch := 0; ch < t.item.TotalChunks(); ch++ {
		payload := make([]byte, scenario.DefaultChunkSize)
		for i := range payload {
			payload[i] = chunkByte(ch, i)
		}
		for _, idx := range pickDistinct(rng, len(ids), c.redundancy) {
			w.peerByID(ids[idx]).node.PublishChunk(t.item, ch, payload)
		}
	}
	return t
}

func (t *pdrTrial) world() *world { return t.w }

func (t *pdrTrial) run() {
	eng := t.w.eng
	t.before = t.w.medium.Stats()
	t.start = eng.Now()
	opts := core.RetrieveOptions{Progress: func(done, total int) {
		t.arrivals = append(t.arrivals, eng.Now()-t.start)
	}}
	t.w.api(func() {
		t.consumer.node.RetrieveWithOptions(t.item, opts, func(r core.RetrievalResult) {
			t.res = r
			t.done = true
		})
	})
	t.w.runUntil(retrievalDeadline, func() bool { return t.done })
}

func (t *pdrTrial) outcome() outcome {
	total := t.item.TotalChunks()
	after := t.w.medium.Stats()
	o := outcome{
		ops:       1,
		recall:    float64(len(t.res.Chunks)) / float64(total),
		latencies: t.arrivals,
		overhead:  after.TxBytes - t.before.TxBytes,
	}
	o.row = metrics.Sample{Recall: o.recall, Latency: t.res.Latency, OverheadBytes: o.overhead, Rounds: float64(t.res.Rounds)}
	if !t.done || !t.res.Complete {
		o.failed = 1 // missed its deadline: a failed operation, not a wrong output
	}
	ids := make([]int, 0, len(t.res.Chunks))
	for id := range t.res.Chunks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, ch := range ids {
		if bad := checkChunk(ch, t.res.Chunks[ch]); bad != "" {
			o.failed = 1
			o.problems = append(o.problems, bad)
		}
	}
	var d digest
	d.add(b2u(t.done), b2u(t.res.Complete), uint64(len(ids)), uint64(t.res.Latency), uint64(t.res.Rounds))
	for _, a := range t.arrivals {
		d.add(uint64(a))
	}
	d.addStats(after, t.w.eng.Processed())
	o.digest = d.sum()
	return o
}

// checkChunk reports how a retrieved chunk differs from its published
// bytes ("" when identical).
func checkChunk(ch int, got []byte) string {
	if len(got) != scenario.DefaultChunkSize {
		return fmt.Sprintf("chunk %d: %d bytes, published %d", ch, len(got), scenario.DefaultChunkSize)
	}
	for i, b := range got {
		if b != chunkByte(ch, i) {
			return fmt.Sprintf("chunk %d: byte %d differs from the published payload", ch, i)
		}
	}
	return ""
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- pdd-mixedcast ----------------------------------------------------

type pddConfig struct {
	rows, cols, entries, redundancy, consumers int
}

type pddTrial struct {
	cfg       pddConfig
	w         *world
	consumers []*peer
	catalogue map[string]bool
	before    radio.Stats
	results   []core.DiscoveryResult
	finished  []bool
	done      int
}

// build is Fig 8's five-consumer point: entries at redundancy 1 over the
// grid, consumers drawn from the centre subgrid as Fig 8 draws them.
func (c pddConfig) build(seed int64, pr *probe) trial {
	w := buildGrid(seed, c.rows, c.cols, pr)
	t := &pddTrial{cfg: c, w: w, catalogue: make(map[string]bool, c.entries)}
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < c.entries; i++ {
		desc := scenario.EntryDescriptor(i)
		t.catalogue[desc.Key()] = true
		for _, idx := range pickDistinct(rng, len(w.peers), c.redundancy) {
			w.peers[idx].node.PublishEntry(desc)
		}
	}
	idx := mobility.CenterSubgridIndices(c.rows, c.cols, min(5, c.rows, c.cols))
	crng := rand.New(rand.NewSource(seed))
	crng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	for _, i := range idx[:c.consumers] {
		t.consumers = append(t.consumers, w.peers[i])
	}
	t.results = make([]core.DiscoveryResult, c.consumers)
	t.finished = make([]bool, c.consumers)
	return t
}

func (t *pddTrial) world() *world { return t.w }

func (t *pddTrial) run() {
	t.before = t.w.medium.Stats()
	for i, c := range t.consumers {
		i := i
		t.w.api(func() {
			c.node.Discover(scenario.EntrySelector(), core.DiscoverOptions{}, func(r core.DiscoveryResult) {
				t.results[i] = r
				t.finished[i] = true
				t.done++
			})
		})
	}
	n := len(t.consumers)
	t.w.runUntil(discoveryDeadline, func() bool { return t.done == n })
}

func (t *pddTrial) outcome() outcome {
	after := t.w.medium.Stats()
	o := outcome{ops: len(t.consumers), overhead: after.TxBytes - t.before.TxBytes}
	var d digest
	var worst time.Duration
	var rounds float64
	for i, r := range t.results {
		o.recall += float64(len(r.Entries)) / float64(t.cfg.entries)
		o.latencies = append(o.latencies, r.Latency)
		worst = max(worst, r.Latency)
		rounds += float64(r.Rounds)
		bad := checkEntries(r.Entries, t.catalogue)
		if !t.finished[i] || len(bad) > 0 {
			o.failed++
			for _, b := range bad {
				o.problems = append(o.problems, fmt.Sprintf("consumer %d: %s", t.consumers[i].id, b))
			}
		}
		d.add(uint64(t.consumers[i].id), b2u(t.finished[i]), uint64(r.Latency), uint64(r.Rounds), entriesHash(r.Entries))
	}
	n := float64(len(t.consumers))
	o.recall /= n
	o.row = metrics.Sample{Recall: o.recall, Latency: worst, OverheadBytes: o.overhead, Rounds: rounds / n}
	d.addStats(after, t.w.eng.Processed())
	o.digest = d.sum()
	return o
}

// checkEntries reports discovered entries that repeat or were never
// published.
func checkEntries(entries []attr.Descriptor, catalogue map[string]bool) []string {
	var bad []string
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		k := e.Key()
		if seen[k] {
			bad = append(bad, "duplicate entry "+k)
		}
		seen[k] = true
		if !catalogue[k] {
			bad = append(bad, "entry outside the published catalogue: "+k)
		}
	}
	return bad
}

func entriesHash(entries []attr.Descriptor) uint64 {
	var d digest
	for _, e := range entries {
		d.add(keyHash(e.Key()))
	}
	return d.sum()
}

// --- city-discovery ---------------------------------------------------

// cityConfig sizes the CityScale population; the remaining settings are
// the scenario.CityConfig defaults.
type cityConfig struct {
	nodes     int
	horizon   time.Duration
	consumers int
}

const (
	cityAreaPerNode   = 900
	cityQueryInterval = time.Minute
	cityHopLimit      = 2
	cityZipfS         = 1.2
)

type cityQuery struct {
	consumer wire.NodeID
	issued   time.Duration
	res      core.DiscoveryResult
	finished bool
}

type cityTrial struct {
	cfg       cityConfig
	w         *world
	catalogue map[string]bool
	before    radio.Stats
	queries   []*cityQuery
}

// build is scenario.CityScale plus CityRun's consumer schedule: waypoint
// mobility in one batched event per second, a Zipf catalogue, and
// consumers spread over the id space that each discover within two hops
// every minute, staggered by index.
func (c cityConfig) build(seed int64, pr *probe) trial {
	w := newWorld(seed, pr)
	t := &cityTrial{cfg: c, w: w, catalogue: make(map[string]bool)}
	side := math.Sqrt(float64(c.nodes) * cityAreaPerNode)
	wp := mobility.NewWaypointFromConfig(mobility.WaypointConfig{
		N: c.nodes, Width: side, Height: side,
		SpeedMin: 0.5, SpeedMax: 1.5, PauseMax: 30 * time.Second, FirstID: 1,
	}, rand.New(rand.NewSource(seed+21)))
	for _, pos := range wp.Positions() {
		w.addPeer(pos)
	}
	items := max(c.nodes/10, 100)
	zrng := rand.New(rand.NewSource(seed + 22))
	zipf := rand.NewZipf(zrng, cityZipfS, 1, uint64(items-1))
	for i := 0; i < 2*items; i++ {
		desc := scenario.EntryDescriptor(int(zipf.Uint64()))
		t.catalogue[desc.Key()] = true
		w.peerByID(wp.ID(zrng.Intn(c.nodes))).node.PublishEntry(desc)
	}
	var moves []radio.Move
	var step func()
	step = func() {
		moves = wp.Step(time.Second, moves[:0])
		if w.probe != nil {
			w.probe.begin(spanRadioMove)
			w.medium.SetPositions(moves)
			w.probe.end()
		} else {
			w.medium.SetPositions(moves)
		}
		w.bench.Schedule(time.Second, step)
	}
	w.bench.Schedule(time.Second, step)
	for ci := 0; ci < c.consumers; ci++ {
		id := wp.ID(ci * c.nodes / c.consumers)
		offset := time.Duration(ci) * cityQueryInterval / time.Duration(c.consumers)
		var ask func()
		ask = func() {
			q := &cityQuery{consumer: id, issued: w.eng.Now()}
			t.queries = append(t.queries, q)
			w.api(func() {
				w.peerByID(id).node.Discover(scenario.EntrySelector(),
					core.DiscoverOptions{HopLimit: cityHopLimit},
					func(r core.DiscoveryResult) {
						q.res = r
						q.finished = true
					})
			})
			w.bench.Schedule(cityQueryInterval, ask)
		}
		w.bench.Schedule(offset, ask)
	}
	return t
}

func (t *cityTrial) world() *world { return t.w }

func (t *cityTrial) run() {
	t.before = t.w.medium.Stats()
	t.w.runUntil(t.cfg.horizon, func() bool { return false })
}

func (t *cityTrial) outcome() outcome {
	after := t.w.medium.Stats()
	o := outcome{overhead: after.TxBytes - t.before.TxBytes}
	var d digest
	answered := 0
	for _, q := range t.queries {
		if !q.finished {
			continue // in flight at the horizon: not attempted
		}
		o.ops++
		bad := checkEntries(q.res.Entries, t.catalogue)
		if q.res.Duration > discoveryDeadline || len(bad) > 0 {
			o.failed++
			for _, b := range bad {
				o.problems = append(o.problems, fmt.Sprintf("consumer %d at %v: %s", q.consumer, q.issued, b))
			}
		}
		if len(q.res.Entries) > 0 {
			answered++
			o.latencies = append(o.latencies, q.res.Latency)
		}
		d.add(uint64(q.consumer), uint64(q.issued), uint64(q.res.Latency), uint64(q.res.Rounds), entriesHash(q.res.Entries))
	}
	if o.ops > 0 {
		o.recall = float64(answered) / float64(o.ops)
	}
	d.add(uint64(len(t.queries)), uint64(o.ops))
	d.addStats(after, t.w.eng.Processed())
	o.digest = d.sum()
	return o
}
