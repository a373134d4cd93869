package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// batchChunkSize is the number of candidates in one scoring work item of
// a PreparedStream matcher: large enough that the scorer's column sweep
// amortizes per-call work across many subscriptions, small enough that the
// worker pool still load-balances a skewed candidate set.
const batchChunkSize = 256

// batchWindowCands bounds how many candidate pointers one PublishBatch
// window stages at once: large enough that most windows hold many events
// (so enumeration and chunking amortize), small enough that the staging
// buffer (8 bytes per candidate) stays cache-resident instead of growing
// to events × candidates pointers the GC must scan per batch.
const batchWindowCands = 32 * 1024

// batchHit is one above-threshold (subscriber, event) match produced by a
// scoring worker, buffered so deliveries can be coalesced per subscriber.
type batchHit struct {
	s     *Subscriber
	ei    int32 // index into the batch's event slice
	score float64
}

// chunkRef is one unit of scoring work: a contiguous candidate range of
// one event.
type chunkRef struct {
	ei     int32
	lo, hi int32
}

// preparedEvent is one event prepared within a publish's batch context,
// with the canonical tuple terms the pruning index enumerates from.
type preparedEvent struct {
	pe            any
	attrs, values []string
}

// pubBatchBuf is the pooled whole-batch state of one publish. Everything a
// publish touches — prepared events, the flat candidate arena, chunk
// descriptors, per-worker arenas, score scratch and hit lists, the
// per-subscriber grouping chains — lives here, so a warm publish allocates
// nothing. The scoring workers run as a method on this buffer rather than
// a closure for the same reason.
type pubBatchBuf struct {
	b        *Broker
	one      [1]*event.Event // Publish's batch of one
	pes      []preparedEvent // index-aligned with events
	flat     []*Subscriber   // window candidate buffer (index path) or snapshot (scan path)
	perEvent [][]*Subscriber // per-event candidate views of the current window
	ends     []int
	chunks   []chunkRef
	winStart int32 // global index of the current window's first event
	cursor   atomic.Int64
	arenas   []any       // per-worker scoring arenas
	scores   [][]float64 // per-worker score scratch
	hits     [][]batchHit
	merged   []batchHit
	head     map[*Subscriber]int32 // subscriber -> last hit index in merged
	prev     []int32               // hit index -> previous hit of same subscriber
	group    []batchHit            // per-subscriber delivery scratch
	add      func(*Subscriber)     // enumeration sink, bound to flat once
}

func newPubBatchBuf() *pubBatchBuf {
	buf := &pubBatchBuf{head: make(map[*Subscriber]int32)}
	buf.add = func(s *Subscriber) { buf.flat = append(buf.flat, s) }
	return buf
}

// pubBufLimit bounds each broker's free list of batch buffers. Batch
// buffers are few but large (hit lists and grouping chains scale with
// matches per batch), which is exactly the population sync.Pool serves
// worst: every GC cycle empties the pool, and regrowing tens of megabytes
// of scratch per batch is itself what forces the next GC cycle. A small
// broker-owned free list keeps the scratch alive across collections;
// buffers beyond the limit (briefly needed only under concurrent
// publishes) still fall back to the allocator.
const pubBufLimit = 4

// acquirePubBuf pops a warm batch buffer off the broker's free list, or
// builds a fresh one when the list is empty.
func (b *Broker) acquirePubBuf() *pubBatchBuf {
	var buf *pubBatchBuf
	select {
	case buf = <-b.pubBufs:
	default:
		buf = newPubBatchBuf()
	}
	buf.b = b
	return buf
}

// release drops every pointer the batch held and returns the buffer to its
// broker's free list; capacities (and the grouping map's buckets) are kept
// warm.
func (buf *pubBatchBuf) release() {
	b := buf.b
	buf.b = nil
	buf.one[0] = nil
	clear(buf.pes)
	buf.pes = buf.pes[:0]
	clear(buf.flat)
	buf.flat = buf.flat[:0]
	clear(buf.perEvent)
	buf.perEvent = buf.perEvent[:0]
	buf.ends = buf.ends[:0]
	buf.chunks = buf.chunks[:0]
	clear(buf.arenas)
	buf.arenas = buf.arenas[:0]
	for i := range buf.hits {
		clear(buf.hits[i])
		buf.hits[i] = buf.hits[i][:0]
	}
	clear(buf.merged)
	buf.merged = buf.merged[:0]
	clear(buf.head)
	buf.prev = buf.prev[:0]
	clear(buf.group)
	buf.group = buf.group[:0]
	select {
	case b.pubBufs <- buf:
	default: // free list full; let the GC have this one
	}
}

// abort unwinds a publish that was not admitted: the batch context is
// closed without crediting its counters and the buffer returns to the
// free list.
func (buf *pubBatchBuf) abort(ctx any) {
	buf.b.m.finish(ctx)
	buf.release()
}

// Publish matches one event against the subscriptions and enqueues its
// deliveries. It is a PublishBatch of one: the same validation, admission
// control, pipeline pass and errors. It returns only after every match
// decision and delivery of the event is done, and it never blocks on slow
// consumers: when a subscriber's queue is full, the oldest queued delivery
// is dropped (counted in Stats.Dropped).
func (b *Broker) Publish(e *event.Event) error {
	if e == nil {
		return ErrNilEvent
	}
	buf := b.acquirePubBuf()
	buf.one[0] = e
	return b.publish(buf, buf.one[:])
}

// PublishBatch publishes a batch of events through one amortized pipeline
// pass: every distinct term is canonicalized once, candidate enumeration
// shares its scratch across the batch, scoring workers pull (event, chunk)
// work items from one cursor with batch-scope similarity-row memos, and
// deliveries are coalesced so each matched subscriber's queue lock is
// taken once per batch instead of once per match. Each subscriber
// receives its deliveries in event order, with scores bit-identical to the
// matcher's scalar scorer; see DESIGN.md §14 for the argument and for what
// is intentionally coarse (stage histograms observe per call, deliveries
// share one admission timestamp per subscriber group, and the whole batch
// is one trace-sampling unit — a sampled batch records one trace with
// aggregate stage spans plus per-event child spans, indexed by every
// member event ID).
//
// Admission is all-or-nothing: the batch is validated up front and either
// every event is admitted (nil return) or none is. Like Publish it never
// blocks on slow consumers.
func (b *Broker) PublishBatch(events []*event.Event) error {
	if len(events) == 0 {
		return nil
	}
	for _, e := range events {
		if e == nil {
			return ErrNilEvent
		}
	}
	return b.publish(b.acquirePubBuf(), events)
}

// publish is the one pipeline pass behind Publish and PublishBatch. It
// takes ownership of buf and releases it.
func (b *Broker) publish(buf *pubBatchBuf, events []*event.Event) error {
	t0 := b.clock.Now()
	n := len(events)

	// Prepare and validate in one pass: the batch context's interner
	// yields the canonical terms validation needs, so no term is
	// canonicalized twice. (Cleanup on failure goes through the abort
	// method, not a closure — closures capturing batch state would cost
	// the warm path its zero-allocation property.)
	ctx := b.m.begin()
	for _, e := range events {
		pe, attrs, values, err := b.m.prepare(ctx, e)
		if err != nil {
			buf.abort(ctx)
			return fmt.Errorf("broker: publish: %w", err)
		}
		buf.pes = append(buf.pes, preparedEvent{pe: pe, attrs: attrs, values: values})
	}
	tPrepared := b.clock.Now()

	// Admission control, one decision for the whole call. The inflight
	// count is incremented before the draining check so Drain's
	// wait-for-zero cannot miss a racing publish: any publish that passes
	// the check is visible to the poll. A shed call counts every event in
	// Stats.Shed.
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if b.draining.Load() {
		buf.abort(ctx)
		return ErrDraining
	}
	if w := b.cfg.shedWatermark; w > 0 && b.sem != nil &&
		len(b.sem) == cap(b.sem) && b.inflight.Load() > int64(w) {
		// The helper budget is exhausted and more publishes are in flight
		// than the watermark allows: shed this one instead of queueing
		// onto a saturated matcher. Counted, surfaced, never silent.
		b.shed.Add(uint64(n))
		buf.abort(ctx)
		return ErrOverloaded
	}

	// A batch is one sampling unit; its member event IDs are collected
	// only when tracing is enabled at all, keeping the default path free
	// of trace work (and of this one slice allocation).
	var trace *telemetry.ActiveTrace
	if n == 1 {
		trace = b.tracer.StartAt(events[0].ID, t0)
	} else if b.tracer != nil {
		ids := make([]string, n)
		for i, e := range events {
			ids[i] = e.ID
		}
		trace = b.tracer.StartBatchAt(ids, t0)
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		buf.abort(ctx)
		return ErrClosed
	}
	if b.cfg.replaySize > 0 {
		b.replay = append(b.replay, events...)
		if len(b.replay) > b.cfg.replaySize {
			b.replay = b.replay[len(b.replay)-b.cfg.replaySize:]
		}
	}
	empty := len(b.subs) == 0
	if b.index == nil && !empty {
		// Full-scan matchers share one subscription snapshot across the
		// whole batch (one lock acquisition, one copy).
		for _, s := range b.subs {
			buf.flat = append(buf.flat, s)
		}
	}
	b.mu.Unlock()

	b.published.Add(uint64(n))
	b.batches.Add(1)
	b.batchSizeHist.Observe(float64(n))
	tEnum := b.clock.Now()
	b.compileHist.ObserveDuration(tPrepared.Sub(t0))
	trace.AddSpanDuration("compile", t0, tPrepared.Sub(t0))
	trace.AddSpanDuration("ingest", tPrepared, tEnum.Sub(tPrepared))

	// Candidate enumeration and scoring, interleaved over windows of
	// consecutive events. A whole-batch candidate arena at the 100k tier
	// holds millions of *Subscriber pointers — tens of megabytes the GC
	// must scan and the caches cannot hold — so events are staged in
	// windows whose candidate sets fit batchWindowCands, reusing one small
	// flat buffer. Everything that amortizes — the batch context, interned
	// terms, per-worker arenas and their row memos, hit lists, delivery
	// coalescing — still spans the whole batch; only the staging of
	// candidate pointers is windowed. Within a window, workers pull
	// (event, chunk) items off one cursor with no per-event barrier.
	nw := b.cfg.parallelism
	for len(buf.hits) < nw {
		buf.hits = append(buf.hits, nil)
		buf.scores = append(buf.scores, nil)
	}
	// Arenas must be drawn on the context-owning goroutine, before any
	// workers start; they persist across every window of the batch.
	for w := 0; w < nw; w++ {
		buf.arenas = append(buf.arenas, b.m.arena(ctx))
	}
	fullScan := b.index == nil || empty
	var enumDur, scoreDur time.Duration
	totalCands := 0
	for lo := 0; lo < n; {
		tWin := b.clock.Now()
		perEvent := buf.perEvent[:0]
		ends := buf.ends[:0]
		hi := lo
		if !fullScan {
			buf.flat = buf.flat[:0] // window staging buffer, reused
			for hi < n && (hi == lo || len(buf.flat) < batchWindowCands) {
				start := len(buf.flat)
				_, pruned := b.index.CandidatesPrepared(buf.pes[hi].attrs, buf.pes[hi].values, buf.add)
				b.pruned.Add(uint64(pruned))
				ends = append(ends, len(buf.flat))
				b.candHist.Observe(float64(len(buf.flat) - start))
				hi++
			}
			// Views into the buffer are derived only after every append of
			// the window, since growth moves it.
			prev := 0
			for _, end := range ends {
				perEvent = append(perEvent, buf.flat[prev:end])
				prev = end
			}
			totalCands += len(buf.flat)
		} else {
			// Full-scan matchers share one subscription snapshot (already
			// staged in flat) across every event; the window only bounds how
			// many events' chunks are in flight at once.
			for hi < n && (hi == lo || (hi-lo)*len(buf.flat) < batchWindowCands) {
				perEvent = append(perEvent, buf.flat)
				b.candHist.Observe(float64(len(buf.flat)))
				hi++
			}
			totalCands += len(buf.flat) * (hi - lo)
		}
		buf.perEvent = perEvent
		buf.ends = ends
		tScore := b.clock.Now()
		enumDur += tScore.Sub(tWin)

		chunks := buf.chunks[:0]
		for i := range perEvent {
			m := len(perEvent[i])
			for clo := 0; clo < m; clo += b.chunk {
				chunks = append(chunks, chunkRef{ei: int32(lo + i), lo: int32(clo), hi: int32(min(clo+b.chunk, m))})
			}
		}
		buf.chunks = chunks
		buf.winStart = int32(lo)
		buf.cursor.Store(0)
		nww := min(nw, len(chunks))
		if nww <= 1 || b.sem == nil {
			buf.work(0)
		} else {
			var wg sync.WaitGroup
		spawn:
			for w := 1; w < nww; w++ {
				select {
				case b.sem <- struct{}{}:
					wg.Add(1)
					go func(wid int) {
						defer wg.Done()
						defer func() { <-b.sem }()
						buf.work(wid)
					}(w)
				default:
					// Helper budget exhausted by concurrent publishes: the
					// publisher goroutine absorbs the remainder.
					break spawn
				}
			}
			buf.work(0)
			wg.Wait()
		}
		scoreDur += b.clock.Now().Sub(tScore)
		lo = hi
	}
	b.scanned.Add(uint64(totalCands))
	b.enumerateHist.ObserveDuration(enumDur)
	b.scoreHist.ObserveDuration(scoreDur)
	// Enumeration and scoring interleave per window; the spans carry the
	// aggregate durations laid end to end from the enumeration start.
	trace.AddSpanDuration("enumerate", tEnum, enumDur)
	trace.AddSpanDuration("score", tEnum.Add(enumDur), scoreDur)
	tDeliver := b.clock.Now()

	// Coalesced delivery: bucket the hits per subscriber (chained through
	// prev/head, no per-subscriber allocation), restore per-subscriber
	// event order, and take each subscriber's queue lock exactly once.
	merged := buf.merged[:0]
	for w := 0; w < nw; w++ {
		merged = append(merged, buf.hits[w]...)
	}
	buf.merged = merged
	b.matched.Add(uint64(len(merged)))
	prevIdx := buf.prev[:0]
	for i := range merged {
		if j, ok := buf.head[merged[i].s]; ok {
			prevIdx = append(prevIdx, j)
		} else {
			prevIdx = append(prevIdx, -1)
		}
		buf.head[merged[i].s] = int32(i)
	}
	buf.prev = prevIdx
	for s, last := range buf.head {
		g := buf.group[:0]
		for i := last; i >= 0; i = prevIdx[i] {
			g = append(g, merged[i])
		}
		sortHitsByEvent(g)
		buf.group = g
		b.offerBatch(s, events, g)
	}

	ti, tr, rc, rr := b.m.finish(ctx)
	b.batchTermsInterned.Add(ti)
	b.batchTermsReused.Add(tr)
	b.batchRowsComputed.Add(rc)
	b.batchRowsReused.Add(rr)
	end := b.clock.Now()
	b.deliverHist.ObserveDuration(end.Sub(tDeliver))
	b.publishHist.ObserveDuration(end.Sub(t0))
	b.deliverySLO.ObserveN(end.Sub(t0), n)
	if trace != nil {
		trace.AddSpanDuration("deliver", tDeliver, end.Sub(tDeliver))
		if n > 1 {
			// Per-event child spans: each member shares the batch's
			// amortized admission-to-delivery latency. Capped so a huge
			// batch cannot bloat the trace ring; the Events list still
			// names every member.
			const maxChildSpans = 64
			for _, e := range events[:min(n, maxChildSpans)] {
				trace.AddSpanDuration("event:"+e.ID, t0, end.Sub(t0))
			}
		}
		trace.Finish()
	}
	buf.release()
	return nil
}

// work is one scoring worker: it pulls chunk descriptors off the shared
// cursor, scores each chunk through its own arena — whose row memo
// persists across every chunk it touches — and appends above-threshold
// scores to its private hit list. It is called once per window; hit lists
// accumulate across windows and are only reset when the buffer is
// released.
func (buf *pubBatchBuf) work(wid int) {
	b := buf.b
	hits := buf.hits[wid]
	scores := buf.scores[wid]
	arena := buf.arenas[wid]
	threshold := b.cfg.threshold
	for {
		c := int(buf.cursor.Add(1)) - 1
		if c >= len(buf.chunks) {
			break
		}
		ch := buf.chunks[c]
		targets := buf.perEvent[ch.ei-buf.winStart][ch.lo:ch.hi]
		scores = b.m.score(arena, targets, buf.pes[ch.ei].pe, scores[:0])
		for k, s := range targets {
			if sc := scores[k]; sc >= threshold && sc > 0 {
				hits = append(hits, batchHit{s: s, ei: ch.ei, score: sc})
			}
		}
	}
	buf.hits[wid] = hits
	buf.scores[wid] = scores[:0]
}

// sortHitsByEvent restores ascending event order within one subscriber's
// hit group (insertion sort: groups are at most batch-sized, event indexes
// distinct, and the hot path must not allocate).
func sortHitsByEvent(g []batchHit) {
	for i := 1; i < len(g); i++ {
		h := g[i]
		j := i - 1
		for j >= 0 && g[j].ei > h.ei {
			g[j+1] = g[j]
			j--
		}
		g[j+1] = h
	}
}

// offerBatch enqueues one subscriber's deliveries for a whole batch under
// a single queue-lock acquisition, with the same drop-oldest overflow
// policy as offer. All deliveries of the group share one admission
// timestamp, and the deliver histogram observes the group handoff, not
// each delivery.
func (b *Broker) offerBatch(s *Subscriber, events []*event.Event, hits []batchHit) {
	if len(hits) == 0 {
		return
	}
	t0 := b.clock.Now()
	var delivered, dropped uint64
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for _, h := range hits {
		d := Delivery{Event: events[h.ei], SubscriptionID: s.id, Score: h.score, At: t0}
	enqueue:
		for {
			select {
			case s.ch <- d:
				delivered++
				break enqueue
			default:
				select {
				case <-s.ch:
					dropped++
				default:
				}
			}
		}
	}
	s.mu.Unlock()
	b.delivered.Add(delivered)
	if dropped > 0 {
		b.dropped.Add(dropped)
	}
}
