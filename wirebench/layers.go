package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/subindex"
	"thematicep/internal/wal"
)

// The traced run times each layer's public Go function from outside, on
// the run's own generated inputs, with the daemons stopped. Nothing is
// instrumented inside the program.

// loop calls f over the templates until budget has passed (at least one
// full pass) and returns how many calls it made.
func loop(n int, budget time.Duration, f func(i int)) int {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < budget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return calls
}

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func newLocalBroker(m *matcher.Matcher, threshold float64, opts ...broker.Option) *broker.Broker {
	// Mirrors thematicd's matcher wiring and defaults.
	return broker.New(broker.PreparedStream(
		m.Score, m.PrepareSubscription, m.PrepareEvent, m.ScorePrepared, m.ScoreBatch,
		m.NewEventBatch, m.PrepareEventInBatch, m.NewBatchArena, m.ScoreBatchInArena,
		m.FinishEventBatch), append([]broker.Option{broker.WithThreshold(threshold)}, opts...)...)
}

// subscribeDrained registers subs on br with one goroutine draining each
// subscriber, as the daemon's per-subscription forwarders do, and calls
// got for every delivery. The returned func waits for the drainers once
// br is closed.
func subscribeDrained(br *broker.Broker, subs []*event.Subscription, got func(broker.Delivery)) func() {
	var wg sync.WaitGroup
	for _, s := range subs {
		sub, err := br.Subscribe(s)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range sub.C() {
				got(d)
			}
		}()
	}
	return wg.Wait
}

// layerBatch is the batch size the batched paths are timed at.
func (sp *spec) layerBatch() int {
	if sp.batch > 1 {
		return sp.batch
	}
	return 16
}

type layers map[string]metric

func measureLayers(b *bench, m *matcher.Matcher, space *semantics.Space, budget time.Duration) (layers, error) {
	out := layers{}
	per := budget / 6
	measureIndexAndMatcher(b, m, space, per, out)
	measureBroker(b, m, per, out)
	if err := measureCodec(b, per/2, out); err != nil {
		return nil, err
	}
	if err := measureWAL(b, out); err != nil {
		return nil, err
	}
	if err := measureCluster(b, m, per, out); err != nil {
		return nil, err
	}
	tv, th, pv, sc := space.CacheStats()
	out["semantics.cache_entries"] = metric{float64(tv + th + pv + sc), "count"}
	return out, nil
}

// measureIndexAndMatcher times the stages Broker.Publish runs per event:
// prepare, enumerate, batch score.
func measureIndexAndMatcher(b *bench, m *matcher.Matcher, space *semantics.Space, per time.Duration, out layers) {
	sp, in := b.sp, b.in
	ps := make([]*matcher.PreparedSubscription, len(in.subs))
	for i, s := range in.subs {
		ps[i] = m.PrepareSubscription(s)
	}
	ix := subindex.New[int32]()
	var addT time.Duration
	for i, s := range in.subs {
		t := time.Now()
		ix.Add(s.ID, s, int32(i))
		addT += time.Since(t)
	}
	var remT time.Duration
	nrem := min(len(in.subs), 2000)
	for i := 0; i < nrem; i++ {
		s := in.subs[i]
		t := time.Now()
		ix.Remove(s.ID)
		remT += time.Since(t)
		ix.Add(s.ID, s, int32(i))
	}
	out["subindex.add_us"] = metric{us(addT, len(in.subs)), "us"}
	out["subindex.remove_us"] = metric{us(remT, nrem), "us"}

	var cands []*matcher.PreparedSubscription
	var scores []float64
	var prepT, enumT, scoreT time.Duration
	var ncand, npruned, nmatched int
	pass := func(i int) {
		e := in.events[i]
		t0 := time.Now()
		pe := m.PrepareEvent(e)
		t1 := time.Now()
		cands = cands[:0]
		attrs, values := pe.CanonicalTuples()
		_, pruned := ix.CandidatesPrepared(attrs, values, func(j int32) { cands = append(cands, ps[j]) })
		t2 := time.Now()
		matched := 0
		for lo := 0; lo < len(cands); lo += 256 {
			scores = m.ScoreBatch(cands[lo:min(lo+256, len(cands))], pe, scores[:0])
			for _, s := range scores {
				if s >= sp.threshold && s > 0 {
					matched++
				}
			}
		}
		t3 := time.Now()
		prepT += t1.Sub(t0)
		enumT += t2.Sub(t1)
		scoreT += t3.Sub(t2)
		ncand += len(cands)
		npruned += pruned
		nmatched += matched
	}
	// Warm the semantic caches first, as the daemon's are after warm-up.
	loop(len(in.events), 0, pass)
	prepT, enumT, scoreT, ncand, npruned, nmatched = 0, 0, 0, 0, 0, 0
	tv0, pr0 := space.Computes()
	n := loop(len(in.events), per, pass)

	// The batch-scope context PublishBatch uses: interned terms and
	// memoised rows, counted over one warm and one measured sweep.
	bn := sp.layerBatch()
	var ti, tr, rc, rr uint64
	for sweep := 0; sweep < 2; sweep++ {
		ti, tr, rc, rr = 0, 0, 0, 0
		for lo := 0; lo < len(in.events); lo += bn {
			eb := m.NewEventBatch()
			var pes []*matcher.PreparedEvent
			for _, e := range in.events[lo:min(lo+bn, len(in.events))] {
				pes = append(pes, m.PrepareEventInBatch(eb, e))
			}
			a := m.NewBatchArena(eb)
			for _, pe := range pes {
				cands = cands[:0]
				attrs, values := pe.CanonicalTuples()
				ix.CandidatesPrepared(attrs, values, func(j int32) { cands = append(cands, ps[j]) })
				for c := 0; c < len(cands); c += 256 {
					scores = m.ScoreBatchInArena(a, cands[c:min(c+256, len(cands))], pe, scores[:0])
				}
			}
			a1, a2, a3, a4 := m.FinishEventBatch(eb)
			ti, tr, rc, rr = ti+a1, tr+a2, rc+a3, rr+a4
		}
	}
	tv1, pr1 := space.Computes()

	out["matcher.prepare_us"] = metric{us(prepT, n), "us"}
	out["subindex.enumerate_us"] = metric{us(enumT, n), "us"}
	out["subindex.candidates_per_event"] = metric{float64(ncand) / float64(n), "count"}
	out["subindex.pruned_ratio"] = metric{ratio(uint64(npruned), uint64(npruned+ncand)), "ratio"}
	out["matcher.score_us_per_candidate"] = metric{us(scoreT, max(ncand, 1)), "us"}
	out["matcher.score_us_per_event"] = metric{us(scoreT, n), "us"}
	out["matcher.match_ratio"] = metric{ratio(uint64(nmatched), uint64(ncand)), "ratio"}
	out["matcher.rows_reused_ratio"] = metric{ratio(rr, rr+rc), "ratio"}
	out["matcher.terms_reused_ratio"] = metric{ratio(tr, tr+ti), "ratio"}
	out["semantics.term_vectors_computed"] = metric{float64(tv1 - tv0), "count"}
	out["semantics.projections_computed"] = metric{float64(pr1 - pr0), "count"}
}

// measureBroker times Broker.Publish and PublishBatch with every
// subscription registered and drained.
func measureBroker(b *bench, m *matcher.Matcher, per time.Duration, out layers) {
	sp, in := b.sp, b.in
	seq := 0
	next := func() *event.Event {
		cp := *in.events[in.template(seq)]
		cp.ID = "e" + strconv.Itoa(seq)
		seq++
		return &cp
	}
	timeSerial := func(br *broker.Broker, budget time.Duration) (time.Duration, int) {
		var t time.Duration
		n := loop(len(in.events), budget, func(int) {
			e := next()
			t0 := time.Now()
			br.Publish(e)
			t += time.Since(t0)
		})
		return t, n
	}

	var opts []broker.Option
	if sp.parallelism > 0 {
		opts = append(opts, broker.WithMatchParallelism(sp.parallelism))
	}
	br := newLocalBroker(m, sp.threshold, opts...)
	var waitNs, waits atomic.Int64
	wait := subscribeDrained(br, in.subs, func(d broker.Delivery) {
		waitNs.Add(int64(time.Since(d.At)))
		waits.Add(1)
	})
	timeSerial(br, 0) // warm-up pass
	st0 := br.Stats()
	serialT, ns := timeSerial(br, per)
	bn := sp.layerBatch()
	var batchT time.Duration
	nb := 0
	start := time.Now()
	for nb == 0 || time.Since(start) < per {
		evs := make([]*event.Event, bn)
		for i := range evs {
			evs[i] = next()
		}
		t := time.Now()
		br.PublishBatch(evs)
		batchT += time.Since(t)
		nb += bn
	}
	st1 := br.Stats()
	br.Close()
	wait()

	// Self time subtracts the single-threaded stage timings, so it needs
	// a Publish on one worker too: the daemon's scores candidate chunks on
	// every core, and its wall time undercuts the stages' sum.
	one := newLocalBroker(m, sp.threshold, broker.WithMatchParallelism(1))
	wait = subscribeDrained(one, in.subs, func(broker.Delivery) {})
	timeSerial(one, 0)
	oneT, n1 := timeSerial(one, per/2)
	one.Close()
	wait()

	out["broker.publish_us_per_event.serial"] = metric{us(serialT, ns), "us"}
	out["broker.publish_us_per_event.batched"] = metric{us(batchT, nb), "us"}
	self := us(oneT, n1) - out["matcher.prepare_us"].Value - out["subindex.enumerate_us"].Value - out["matcher.score_us_per_event"].Value
	out["broker.self_us_per_event"] = metric{self, "us"}
	out["broker.queue_wait_us"] = metric{float64(waitNs.Load()) / 1e3 / float64(max(waits.Load(), 1)), "us"}
	out["broker.matched_per_event"] = metric{float64(st1.Matched-st0.Matched) / float64(ns+nb), "count"}
	out["broker.dropped"] = metric{float64(st1.Dropped - st0.Dropped), "count"}
	out["broker.shed"] = metric{float64(st1.Shed - st0.Shed), "count"}
}

// countWriter discards bytes and counts them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// measureCodec times broker.ReadFrame on the publish and publishb frames
// the generator sends, and broker.WriteFrame on the delivery frames the
// reference predicts.
func measureCodec(b *bench, per time.Duration, out layers) error {
	in := b.in
	frame := func(p []byte) []byte {
		f := make([]byte, 4+len(p))
		f[0], f[1], f[2], f[3] = byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p))
		copy(f[4:], p)
		return f
	}
	single := make([][]byte, len(in.events))
	for i := range single {
		single[i] = frame(b.codec.payload(in, i, 1, false))
	}
	bn := b.sp.layerBatch()
	var batched [][]byte
	for lo := 0; lo+bn <= len(in.events); lo += bn {
		batched = append(batched, frame(b.codec.payload(in, lo, bn, true)))
	}
	var decT time.Duration
	var decErr error
	n := loop(len(single), per, func(i int) {
		t := time.Now()
		if _, err := broker.ReadFrame(bytes.NewReader(single[i])); err != nil {
			decErr = err
		}
		decT += time.Since(t)
	})
	var decbT time.Duration
	nbf := loop(len(batched), per, func(i int) {
		t := time.Now()
		if _, err := broker.ReadFrame(bytes.NewReader(batched[i])); err != nil {
			decErr = err
		}
		decbT += time.Since(t)
	})
	if decErr != nil {
		return fmt.Errorf("decode: %w", decErr)
	}
	dels := make([]*broker.Frame, len(in.events))
	for i, e := range in.events {
		cp := *e
		cp.ID = "e" + strconv.Itoa(i)
		f := &broker.Frame{Type: broker.FrameDelivery, Event: &cp, SubscriptionID: "s0", Score: 0.5, At: time.Now()}
		if ws := b.ref.want[i]; len(ws) > 0 {
			f.SubscriptionID, f.Score = "s"+strconv.Itoa(int(ws[0].sub)), ws[0].score
		}
		dels[i] = f
	}
	var encT time.Duration
	cw := &countWriter{}
	var encErr error
	ne := loop(len(dels), per, func(i int) {
		t := time.Now()
		if err := broker.WriteFrame(cw, dels[i]); err != nil {
			encErr = err
		}
		encT += time.Since(t)
	})
	if encErr != nil {
		return fmt.Errorf("encode: %w", encErr)
	}
	out["wire.decode_us.publish"] = metric{us(decT, n), "us"}
	out["wire.decode_us.publishb_per_event"] = metric{us(decbT, nbf*bn), "us"}
	out["wire.encode_us.delivery"] = metric{us(encT, ne), "us"}
	out["wire.bytes.delivery"] = metric{float64(cw.n) / float64(ne), "bytes"}
	return nil
}

// measureWAL times wal.Log appends (a subscribe and an unsubscribe per
// subscription, as churn writes them) under the federation workload's
// fsync policy.
func measureWAL(b *bench, out layers) error {
	dir := filepath.Join(b.work, "wal-layer")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	pol, err := wal.ParseFsyncPolicy(walPolicy)
	if err != nil {
		return err
	}
	l, _, err := wal.Open(dir, wal.Options{Fsync: pol})
	if err != nil {
		return err
	}
	subs := b.in.subs[:min(len(b.in.subs), 2000)]
	var t time.Duration
	for _, s := range subs {
		t0 := time.Now()
		l.Subscribed(s.ID, s)
		t += time.Since(t0)
	}
	for _, s := range subs {
		t0 := time.Now()
		l.Unsubscribed(s.ID)
		t += time.Since(t0)
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	out["wal.append_us"] = metric{us(t, 2*len(subs)), "us"}
	out["wal.records"] = metric{float64(st.Appends), "count"}
	return nil
}

// walPolicy is hop-churn's -fsync, used for the WAL layer on every
// workload.
const walPolicy = "100ms"

// measureCluster runs two federated brokers in-process over loopback and
// times cluster.Node.PublishBatch at the first to the second's
// Delivery.At stamp, for subscriptions only the second node hosts. It
// uses at most 2k of the workload's subscriptions.
func measureCluster(b *bench, m *matcher.Matcher, per time.Duration, out layers) error {
	sp, in := b.sp, b.in
	brs := []*broker.Broker{newLocalBroker(m, sp.threshold), newLocalBroker(m, sp.threshold)}
	srvs := make([]*broker.Server, 2)
	addrs := make([]string, 2)
	for i, br := range brs {
		srvs[i] = broker.NewServer(br)
		a, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = a.String()
	}
	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		n, err := cluster.New(brs[i], cluster.Config{Self: addrs[i], Peers: []string{addrs[1-i]}})
		if err != nil {
			return err
		}
		nodes[i] = n
		srvs[i].SetBackend(n)
		srvs[i].SetPeerHandler(n)
	}
	defer func() {
		for i := range nodes {
			nodes[i].Close()
			srvs[i].Close()
			brs[i].Close()
		}
	}()
	for _, n := range nodes {
		n.Start()
	}
	top := newTopology(addrs)
	subs := in.subs[:min(len(in.subs), 2000)]
	home := make([]int, len(subs))
	var handles []broker.SubHandle
	for i, s := range subs {
		home[i] = top.home(s, 0)
		h, err := nodes[home[i]].SubscribeHandle(s)
		if err != nil {
			return err
		}
		handles = append(handles, h)
	}
	wantRemote := top.remote(subs, home)
	deadline := time.Now().Add(30 * time.Second)
	for j, n := range nodes {
		for n.Stats().RemoteSubs != wantRemote[j] {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster layer: node %d hosts %d remote registrations, want %d", j, n.Stats().RemoteSubs, wantRemote[j])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Only a match made on node 1 reaches a subscription that node 0
	// does not host, so its At stamp is node 1's.
	const rate = 400.0
	total := max(1, int(per.Seconds()*rate))
	evs := make([]*event.Event, 0, total)
	for s := 0; s < total; s++ {
		cp := *in.events[in.template(s)]
		cp.ID = "e" + strconv.Itoa(s)
		evs = append(evs, &cp)
	}
	called := make([]atomic.Int64, total)
	remoteOnly := make([]bool, len(subs))
	for i, s := range subs {
		remoteOnly[i] = home[i] == 1 && len(s.Theme) > 0
	}
	var mu sync.Mutex
	var hops []float64
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range h.C() {
				delivered.Add(1)
				if !remoteOnly[i] {
					continue
				}
				seq, err := strconv.Atoi(strings.TrimPrefix(d.Event.ID, "e"))
				if err != nil || seq >= total {
					continue
				}
				if c := called[seq].Load(); c != 0 {
					mu.Lock()
					hops = append(hops, float64(d.At.UnixNano()-c)/1e6)
					mu.Unlock()
				}
			}
		}()
	}
	bn := sp.layerBatch()
	st0 := nodes[0].Stats()
	clk := newWallClock()
	openLoop(clk, clk.now(), 1e9*float64(bn)/rate, (total+bn-1)/bn, func(f int, _ int64) {
		lo := f * bn
		hi := min(lo+bn, total)
		now := time.Now().UnixNano()
		for s := lo; s < hi; s++ {
			called[s].Store(now)
		}
		nodes[0].PublishBatch(evs[lo:hi])
	})
	time.Sleep(200 * time.Millisecond)
	st1 := nodes[0].Stats()
	dedup := nodes[0].Stats().Deduped + nodes[1].Stats().Deduped
	for i := range nodes {
		nodes[i].Close()
	}
	wg.Wait()
	sorted(hops)
	p99, _, _ := tail(hops, 0.99)
	out["cluster.hop_ms.p50"] = metric{median(hops), "ms"}
	out["cluster.hop_ms.p99"] = metric{p99, "ms"}
	out["cluster.forwarded"] = metric{float64(st1.Forwarded - st0.Forwarded), "count"}
	out["cluster.shed"] = metric{float64(st1.ForwardsShed - st0.ForwardsShed), "count"}
	out["cluster.deduped_ratio"] = metric{ratio(dedup, dedup+uint64(delivered.Load())), "ratio"}
	return nil
}
