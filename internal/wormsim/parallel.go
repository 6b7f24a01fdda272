package wormsim

// The parallel engine (Config.Engine == EngineParallel). It runs the event
// engine's cycle on a fixed pool of workers and produces byte-identical
// results for every seed, independent of GOMAXPROCS and of the configured
// worker count. Determinism rests on three mechanisms (DESIGN.md S26):
//
//   - 64-aligned contiguous partitioning: worker k owns switches
//     [lo[k], hi[k]), with boundaries at multiples of 64 so every bitmask
//     word (active-lane, active-switch, active-source) has exactly one
//     writer. Stages whose state is per-switch (crossbar, injection feed,
//     generation) run on the owner; the link stage partitions by the
//     *downstream* switch of each filled wire, because landing a flit
//     writes the downstream lane.
//
//   - a static wavefront schedule for the crossbar stage: popping a flit
//     at switch u frees buffer space and a wire that a later-indexed
//     adjacent switch v observes in the same cycle (canAccept, the
//     least-loaded selection), so sequential order matters exactly between
//     adjacent switches. level[v] = 1 + max(level[u]) over neighbors
//     u < v gives every switch the earliest phase in which all its
//     lower-indexed neighbors are done; switches within a level are
//     mutually non-adjacent, so processing them concurrently commutes, and
//     a barrier between levels reproduces the sequential credit
//     visibility. The communication graph is immutable for a Simulator's
//     lifetime (faults only flag resources dead; Rewire swaps the path
//     source), so the schedule is computed once.
//
//   - deferred wakes across partitions: a crossbar pop wakes the lanes
//     parked upstream on its channel (engine.go). A worker wakes its own
//     switches directly; a wake for another worker's switch goes into the
//     waker's list for the level's parity, and after each level barrier
//     every worker applies the previous level's wakes that target its own
//     switches (the last level's, in the next cycle's link phase).
//     Adjacent switches never share a level, and between neighbors the
//     level order is the id order, so a wake for a higher-numbered
//     neighbor still lands before that neighbor's level runs — the
//     sequential engine's "this cycle" — and one for a lower-numbered
//     neighbor lands after its level ran, the sequential "next cycle".
//     Lists alternate by parity because a level's lists are read during
//     the next level, while the workers write the other parity's.
//
//   - deterministic merge order: per-worker filled-wire lists, counter
//     deltas, and staged packet spawns are drained in ascending worker
//     order. Ejection fills are sorted within each worker; since ranges
//     are contiguous and ascending, worker-order concatenation equals the
//     ascending node order the sequential engines deliver in. Packet
//     randomness comes from per-node RNG streams (split identically under
//     every engine), so no draw depends on scheduling.
//
// Phases whose sequential order is observable and cheap stay on the
// coordinator: delivery always (float accumulation, the latency ledger,
// traces, closed-loop callbacks); the crossbar stage when a global
// random-selection draw or a TraceMove hook imposes a total order; the
// feed stage under TraceMove; generation under a closed-loop workload
// (the ClosedLoop contract is single-goroutine, ascending node order).
// Everything between cycles — recovery scans, fault injection, the
// watchdog — already runs on the caller goroutine and needs no change.
//
// The pool is W-1 goroutines. Between back-to-back cycles a worker spins on
// a cycle counter, so a cycle starts without waking a goroutine; once the
// coordinator stays quiet it parks on a channel and the next cycle comes
// as a token. Within a cycle the phases synchronize on a
// generation-counting spin barrier (spinners yield to the scheduler, so
// single-core machines make progress, just without speedup). Only the
// phases that read another worker's writes are separated by one: nothing
// waits behind the last crossbar level or the feed phase, whose effects
// stay within the worker until the next cycle. Workers never root the
// Simulator while parked: they receive it anew with each token, so an
// abandoned simulator stays collectable, and a finalizer backstop closes
// the pool if Finish is never called (error paths in drivers). A panic on
// any worker marks the run broken, every spin loop drains, and the
// coordinator re-panics with the original value on the caller goroutine —
// exactly what the harness's panic guard expects.

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parState is the parallel engine's schedule and pool state.
type parState struct {
	workers int
	// lo/hi are worker k's owned switch range [lo[k], hi[k]); wordLo/wordHi
	// the same range in 64-bit bitmask words. Boundaries are 64-aligned.
	lo, hi         []int
	wordLo, wordHi []int
	// level[v] is v's wavefront phase; levelMasks[l] is the bitmask of
	// switches in phase l, intersected with the active-switch mask each
	// cycle.
	level      []int32
	nLevels    int
	levelMasks [][]uint64
	// wireDst[w] is the switch whose input lane wire w feeds (the channel
	// sink, or the node itself for injection wires) — the link stage's
	// partition key.
	wireDst []int32
	ejBase  int // first ejection wire index (nCh + n)

	// readyEject/readyOther are the per-worker filled-wire lists of the
	// previous cycle, swapped from the wctx fill lists at cycle start.
	readyEject [][]int32
	readyOther [][]int32

	// seqSwitch/seqFeed/seqGen select the sequential fallbacks for the
	// order-observable configurations; set by the coordinator before the
	// workers wake, constant within a cycle.
	seqSwitch, seqFeed, seqGen bool

	work     chan *Simulator // wakes parked workers, one token per parked worker per cycle
	cycleGen atomic.Uint32   // bumped as each cycle starts; spinning workers watch it
	parked   []atomic.Bool   // per worker: parked on work rather than spinning on cycleGen
	barCount atomic.Int32    // spin-barrier arrival count
	barGen   atomic.Uint32   // spin-barrier generation
	done     atomic.Int32    // workers finished with the current cycle
	broken   atomic.Bool     // a worker panicked; every spin loop drains
	panicMu  sync.Mutex
	panicVal any
	stop     sync.Once
}

// newParState builds the partition, the wavefront schedule, and the worker
// pool for s. requested==0 means GOMAXPROCS; the effective count is capped
// at one worker per 64 switches so every bitmask word stays single-writer.
func newParState(s *Simulator, requested int) *parState {
	w := requested
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	words := (s.n + 63) / 64
	if w > words {
		w = words
	}
	if w < 1 {
		w = 1
	}
	par := &parState{workers: w, ejBase: s.nCh + s.n}
	par.lo = make([]int, w)
	par.hi = make([]int, w)
	par.wordLo = make([]int, w)
	par.wordHi = make([]int, w)
	for k := 0; k < w; k++ {
		par.wordLo[k] = k * words / w
		par.wordHi[k] = (k + 1) * words / w
		par.lo[k] = par.wordLo[k] * 64
		par.hi[k] = min(par.wordHi[k]*64, s.n)
	}

	// Wavefront levels: a switch waits for every lower-indexed neighbor
	// (either channel direction makes the pair order-sensitive).
	par.level = make([]int32, s.n)
	for v := 0; v < s.n; v++ {
		lv := int32(0)
		for _, c := range s.cg.In[v] {
			if u := s.cg.Channels[c].From; u < v && par.level[u]+1 > lv {
				lv = par.level[u] + 1
			}
		}
		for _, c := range s.cg.Out[v] {
			if u := s.cg.Channels[c].To; u < v && par.level[u]+1 > lv {
				lv = par.level[u] + 1
			}
		}
		par.level[v] = lv
		if int(lv)+1 > par.nLevels {
			par.nLevels = int(lv) + 1
		}
	}
	par.levelMasks = make([][]uint64, par.nLevels)
	for l := range par.levelMasks {
		par.levelMasks[l] = make([]uint64, words)
	}
	for v, lv := range par.level {
		par.levelMasks[lv][v>>6] |= 1 << (uint(v) & 63)
	}

	par.wireDst = make([]int32, s.nCh+s.n)
	for c := 0; c < s.nCh; c++ {
		par.wireDst[c] = int32(s.cg.Channels[c].To)
	}
	for v := 0; v < s.n; v++ {
		par.wireDst[s.nCh+v] = int32(v)
	}

	par.readyEject = make([][]int32, w)
	par.readyOther = make([][]int32, w)
	if w > 1 {
		par.work = make(chan *Simulator, w-1)
		par.parked = make([]atomic.Bool, w)
		for k := 1; k < w; k++ {
			par.parked[k].Store(true)
			go par.workerLoop(k)
		}
		// Drivers abandon simulators on error paths without calling
		// Finish; the finalizer keeps those from leaking pool goroutines.
		runtime.SetFinalizer(s, (*Simulator).releaseWorkers)
	}
	return par
}

// Workers returns the effective parallel worker count (1 for the
// sequential engines) — diagnostics for CLIs and benchmarks.
func (s *Simulator) Workers() int {
	if s.par == nil {
		return 1
	}
	return s.par.workers
}

// releaseWorkers shuts the worker pool down; idempotent, called by Finish
// and by the GC finalizer backstop.
func (s *Simulator) releaseWorkers() {
	if s.par == nil || s.par.work == nil {
		return
	}
	s.par.stop.Do(func() { close(s.par.work) })
}

// workerLoop runs worker k's cycles: one on each token received while
// parked, then as many as the coordinator starts while it spins.
func (par *parState) workerLoop(k int) {
	for s := range par.work {
		for {
			gen := par.cycleGen.Load()
			s.parCycleWorker(k)
			if !par.awaitCycle(k, gen) {
				break
			}
		}
	}
}

// parkAfterSpins bounds how long (in polls, most of them scheduler yields)
// an idle worker waits for the next cycle before parking.
const parkAfterSpins = 1 << 12

// awaitCycle waits, as worker k after the cycle numbered gen, for the next
// cycle: true once it has started, false when the worker parks instead
// (the next cycle then sends it a token). The worker announces parking
// before its last look at the counter, and the coordinator bumps the
// counter before it looks at the announcement, so a cycle starting in
// between is either seen here (and claimed back) or sent as a token —
// never both, never neither.
func (par *parState) awaitCycle(k int, gen uint32) bool {
	for i := 0; i < parkAfterSpins && !par.broken.Load(); i++ {
		if par.cycleGen.Load() != gen {
			return true
		}
		if i > 32 {
			runtime.Gosched()
		}
	}
	par.parked[k].Store(true)
	return par.cycleGen.Load() != gen && par.parked[k].CompareAndSwap(true, false)
}

// parCycleWorker runs one cycle's phases as worker k, converting a panic
// into the broken flag (the coordinator re-raises it) and always counting
// itself done so the coordinator's quiesce cannot hang.
func (s *Simulator) parCycleWorker(k int) {
	defer func() {
		if r := recover(); r != nil {
			s.par.noteBroken(r)
		}
		s.par.done.Add(1)
	}()
	s.parCycle(k)
}

// noteBroken records the first panic value and marks the run broken so
// every spin loop drains.
func (par *parState) noteBroken(r any) {
	par.panicMu.Lock()
	if par.panicVal == nil {
		par.panicVal = r
	}
	par.panicMu.Unlock()
	par.broken.Store(true)
}

// barrier blocks until all workers arrive (generation-counting spin with
// scheduler yields). It returns false when the run broke — callers must
// drain immediately; the barrier state is not reusable after that.
func (par *parState) barrier() bool {
	gen := par.barGen.Load()
	if par.barCount.Add(1) == int32(par.workers) {
		par.barCount.Store(0)
		par.barGen.Add(1)
	} else {
		for i := 0; par.barGen.Load() == gen; i++ {
			if par.broken.Load() {
				return false
			}
			if i > 32 {
				runtime.Gosched()
			}
		}
	}
	return !par.broken.Load()
}

// awaitWorkers spins until every pool worker has finished the current
// cycle (including their panic epilogues), so the coordinator never runs
// the sequential tail — or unwinds a panic — while a worker could still
// touch simulator state.
func (par *parState) awaitWorkers() {
	for par.done.Load() < int32(par.workers-1) {
		runtime.Gosched()
	}
}

// stepParallel runs one cycle under the parallel engine. The coordinator
// (the RunCycles goroutine) handles every order-observable sequential
// piece — delivery, staged-spawn commits — and acts as worker 0 in
// between.
func (s *Simulator) stepParallel() {
	par := s.par
	if par.broken.Load() {
		panic(par.panicVal) // a previous cycle already panicked; the sim is dead
	}
	defer func() {
		if r := recover(); r != nil {
			par.noteBroken(r)
			par.awaitWorkers()
			panic(r)
		}
	}()
	par.seqSwitch = s.TraceMove != nil || (s.cfg.Mode == Adaptive && s.cfg.Select == SelectRandom)
	par.seqFeed = s.TraceMove != nil
	par.seqGen = s.cfg.Workload != nil
	for k := 0; k < par.workers; k++ {
		wx := &s.wk[k]
		par.readyEject[k], wx.fillEject = wx.fillEject, par.readyEject[k][:0]
		par.readyOther[k], wx.fillOther = wx.fillOther, par.readyOther[k][:0]
	}
	// Delivery: coordinator-only, worker order == ascending node order
	// (each list is sorted and the ranges are contiguous).
	for k := 0; k < par.workers; k++ {
		for _, w := range par.readyEject[k] {
			s.deliverEject(int(w) - par.ejBase)
		}
	}
	par.done.Store(0)
	par.cycleGen.Add(1)
	for k := 1; k < par.workers; k++ {
		if par.parked[k].CompareAndSwap(true, false) {
			par.work <- s
		}
	}
	s.parCycle(0)
	par.awaitWorkers()
	if par.broken.Load() {
		panic(par.panicVal)
	}
	// Commit staged spawns in worker order == ascending source-node order,
	// so packet ids match the sequential engines.
	for k := 0; k < par.workers; k++ {
		wx := &s.wk[k]
		for i := range wx.spawns {
			rec := &wx.spawns[i]
			if !rec.ok {
				s.res.PacketsUnroutable++
			} else {
				s.commitPacket(int(rec.v), int(rec.dst), noTag, rec.route, int32(s.cfg.PacketLength))
			}
			rec.route = nil // release staged path memory
		}
		wx.spawns = wx.spawns[:0]
	}
}

// parCycle runs the barrier-phased portion of one cycle as worker k. Every
// worker — including the coordinator as worker 0 — executes the same
// barrier sequence; the sequential-fallback flags are cycle-constant, so
// the counts always agree.
func (s *Simulator) parCycle(k int) {
	par := s.par
	wx := &s.wk[k]

	// Link phase, partitioned by downstream switch: every worker scans all
	// fill lists and claims the wires landing in its range. Distinct wires
	// feed distinct lanes, so claims never overlap and order within the
	// phase is immaterial.
	lo, hi := int32(par.lo[k]), int32(par.hi[k])
	for j := 0; j < par.workers; j++ {
		for _, w := range par.readyOther[j] {
			if d := par.wireDst[w]; d >= lo && d < hi {
				s.linkWire(wx, int(w))
			}
		}
	}
	// The wakes deferred during the previous cycle's last crossbar level,
	// which no barrier followed (all are next-cycle wakes). Their lists are
	// not rewritten before this phase's barrier.
	s.applyWakes(k, (par.nLevels-1)&1)
	if !par.barrier() {
		return
	}

	// Crossbar phase: wavefront levels over the active-switch mask.
	// Same-level switches are mutually non-adjacent, so concurrent
	// processing commutes; the barrier between levels reproduces the
	// sequential engines' same-cycle credit visibility between adjacent
	// switches. The sequential fallback owns, and so wakes, every switch.
	if par.seqSwitch {
		if k == 0 {
			wx.ownLo, wx.ownHi = 0, int32(s.n)
			s.switchStageEvent(wx)
		}
		if !par.barrier() {
			return
		}
	} else {
		wx.ownLo, wx.ownHi = lo, hi
		sw := s.ev.switchWords
		for l := 0; l < par.nLevels; l++ {
			if l > 0 {
				s.applyWakes(k, (l-1)&1)
			}
			wx.parity = l & 1
			wx.wakes[wx.parity] = wx.wakes[wx.parity][:0]
			mask := par.levelMasks[l]
			for wi := par.wordLo[k]; wi < par.wordHi[k]; wi++ {
				word := mask[wi] & sw[wi]
				base := wi << 6
				for word != 0 {
					v := base + bits.TrailingZeros64(word)
					word &= word - 1
					if s.switchEvent(wx, v) {
						sw[wi] &^= 1 << (uint(v) & 63)
					}
				}
			}
			if l < par.nLevels-1 && !par.barrier() {
				return
			}
		}
	}

	// The crossbar phase is the only filler of ejection wires; sorting each
	// worker's list here restores the global ascending delivery order the
	// coordinator consumes next cycle.
	slices.Sort(wx.fillEject)

	// Feed phase: per-node state, partitioned by owner. It reads only what
	// the owner's own crossbar turn wrote (the node's injection lane), so
	// it needs no barrier behind the last level; the sequential feed
	// follows the sequential crossbar's barrier.
	if par.seqFeed {
		if k == 0 {
			s.feedInjectionEvent(wx, 0, len(s.ev.srcWords))
		}
	} else {
		s.feedInjectionEvent(wx, par.wordLo[k], par.wordHi[k])
	}

	// Generate phase: take the owned nodes whose arrival is due and sample
	// routes into the staging list; the coordinator commits after the
	// cycle. Under a closed-loop workload the ClosedLoop contract (single
	// goroutine, ascending node order) forces the sequential path, after
	// every feed (spawning writes any node's queue).
	if par.seqGen {
		if !par.barrier() {
			return
		}
		if k == 0 {
			s.generate()
		}
		return
	}
	for {
		v, dst, ok := s.dueArrival(wx)
		if !ok {
			return
		}
		route, rok := s.sampleRoute(wx, v, dst)
		wx.spawns = append(wx.spawns, spawnRec{v: int32(v), dst: int32(dst), ok: rok, route: route})
	}
}

// applyWakes applies, as worker k, the wakes the other workers deferred
// during the last level of the given parity that target k's switches.
func (s *Simulator) applyWakes(k, parity int) {
	lo, hi := int32(s.par.lo[k]), int32(s.par.hi[k])
	for j := range s.wk {
		if j == k {
			continue
		}
		for _, w := range s.wk[j].wakes[parity] {
			if v := s.ev.wireSwitch[w]; v >= lo && v < hi {
				s.ev.wake(w)
			}
		}
	}
}
