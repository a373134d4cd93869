package broker

import (
	"fmt"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
)

// equivThreshold is the delivery threshold the equivalence runs and their
// oracle share (the broker's default).
const equivThreshold = 0.05

// runBrokerWith subscribes every subscription, publishes every event in
// calls of bs events (bs == 1 goes through Publish, larger sizes through
// PublishBatch), and unsubscribes every third subscription at the
// midpoint. It returns the delivery set and the final stats, and fails the
// test if any subscriber received its deliveries out of publish order.
func runBrokerWith(t *testing.T, m matchEngine, subs []*event.Subscription, events []*event.Event, bs int, opts ...Option) (map[deliveryKey]bool, Stats) {
	t.Helper()
	base := []Option{
		WithQueueSize(len(events) + 1), // no overflow: drop-oldest never fires
		WithReplayBuffer(0),
		WithThreshold(equivThreshold),
	}
	b := New(m, append(base, opts...)...)

	handles := make([]*Subscriber, len(subs))
	for i, s := range subs {
		h, err := b.Subscribe(s)
		if err != nil {
			t.Fatalf("subscribe %q: %v", s.ID, err)
		}
		handles[i] = h
	}
	publishAll := func(evs []*event.Event) {
		if bs == 1 {
			for _, e := range evs {
				if err := b.Publish(e); err != nil {
					t.Fatalf("publish %q: %v", e.ID, err)
				}
			}
			return
		}
		for lo := 0; lo < len(evs); lo += bs {
			hi := min(lo+bs, len(evs))
			if err := b.PublishBatch(evs[lo:hi]); err != nil {
				t.Fatalf("publish batch [%d:%d]: %v", lo, hi, err)
			}
		}
	}
	mid := len(events) / 2
	publishAll(events[:mid])
	for j := 0; j < len(handles); j += 3 {
		handles[j].Close()
	}
	publishAll(events[mid:])
	st := b.Stats()
	b.Close()

	order := make(map[string]int, len(events))
	for i, e := range events {
		order[e.ID] = i
	}
	got := make(map[deliveryKey]bool)
	for _, h := range handles {
		last := -1
		for d := range h.C() {
			if i := order[d.Event.ID]; i <= last {
				t.Errorf("sub %s: event %s delivered out of publish order", h.ID(), d.Event.ID)
			} else {
				last = i
			}
			got[deliveryKey{d.SubscriptionID, d.Event.ID, d.Score}] = true
		}
	}
	return got, st
}

// oracleDeliveries is the equivalence tests' independent oracle: it loops
// a scalar scorer over every live (subscription, event) pair under
// runBrokerWith's unsubscribe schedule, with no broker involved.
func oracleDeliveries(subs []*event.Subscription, events []*event.Event, score func(si, ei int) float64) map[deliveryKey]bool {
	want := make(map[deliveryKey]bool)
	for ei, e := range events {
		for si, s := range subs {
			if ei >= len(events)/2 && si%3 == 0 {
				continue // unsubscribed at the midpoint
			}
			if sc := score(si, ei); sc >= equivThreshold && sc > 0 {
				want[deliveryKey{s.ID, e.ID, sc}] = true
			}
		}
	}
	return want
}

// scorePrepared is the thematic matcher's scalar scorer, ScorePrepared,
// over forms prepared outside any batch context.
func scorePrepared(t testing.TB, subs []*event.Subscription, events []*event.Event) func(si, ei int) float64 {
	m := matcher.New(evalSpace(t))
	ps := make([]*matcher.PreparedSubscription, len(subs))
	for i, s := range subs {
		ps[i] = m.PrepareSubscription(s)
	}
	pe := make([]*matcher.PreparedEvent, len(events))
	for i, e := range events {
		pe[i] = m.PrepareEvent(e)
	}
	return func(si, ei int) float64 { return m.ScorePrepared(ps[si], pe[ei]) }
}

func diffDeliveries(t *testing.T, label string, want, got map[deliveryKey]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: delivery counts differ: want %d, got %d", label, len(want), len(got))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: lost delivery %+v", label, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: invented delivery %+v", label, k)
		}
	}
}

// TestBatchDeliveryEquivalence checks that batch boundaries are invisible
// to delivery: batches of 2 and 5 events, which leave a short last batch
// in each half of the run, must produce the oracle's exact delivery set —
// scores bit-identical — with one worker and under the parallel chunked
// dispatcher, with and without pruning; and a pruned run must scan and
// match exactly what one-event publishes scan and match.
func TestBatchDeliveryEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			subs, events := mixedThemeWorkload(t, seed)
			want := oracleDeliveries(subs, events, scorePrepared(t, subs, events))
			if len(want) == 0 {
				t.Fatal("oracle found no deliveries; equivalence is vacuous")
			}
			_, singleStats := runBrokerWith(t, thematicMatcher(t), subs, events, 1, WithMatchParallelism(1))
			for _, bs := range []int{2, 5} {
				batch, batchStats := runBrokerWith(t, thematicMatcher(t), subs, events, bs, WithMatchParallelism(1))
				diffDeliveries(t, fmt.Sprintf("batch=%d serial", bs), want, batch)
				if batchStats.Matched != singleStats.Matched || batchStats.Scanned != singleStats.Scanned {
					t.Errorf("batch=%d: scanned/matched %d/%d, one-event publishes %d/%d", bs,
						batchStats.Scanned, batchStats.Matched, singleStats.Scanned, singleStats.Matched)
				}

				batchPar, _ := runBrokerWith(t, thematicMatcher(t), subs, events, bs, WithMatchParallelism(4))
				diffDeliveries(t, fmt.Sprintf("batch=%d parallel", bs), want, batchPar)

				batchFull, _ := runBrokerWith(t, thematicMatcher(t), subs, events, bs, WithMatchParallelism(4), WithPruning(false))
				diffDeliveries(t, fmt.Sprintf("batch=%d full-scan", bs), want, batchFull)
			}
		})
	}
}

// TestBatchDispatchChunks drives a candidate set wider than two scoring
// chunks (several column sweeps per event, parallel workers) and checks
// it against the oracle.
func TestBatchDispatchChunks(t *testing.T) {
	baseSubs, events := mixedThemeWorkload(t, 11)
	var subs []*event.Subscription
	for rep := 0; rep < 12; rep++ {
		for _, s := range baseSubs {
			cp := *s
			cp.ID = fmt.Sprintf("%s-r%d", s.ID, rep)
			subs = append(subs, &cp)
		}
	}
	if len(subs) <= 2*batchChunkSize {
		t.Fatalf("population %d does not exceed two chunks (%d)", len(subs), batchChunkSize)
	}
	events = events[:12]
	want := oracleDeliveries(subs, events, scorePrepared(t, subs, events))
	for _, bs := range []int{1, len(events)} {
		got, _ := runBrokerWith(t, thematicMatcher(t), subs, events, bs, WithMatchParallelism(4))
		diffDeliveries(t, fmt.Sprintf("chunked batch=%d", bs), want, got)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no deliveries; equivalence is vacuous")
	}
}
