package broker

import (
	"fmt"
	"strconv"
	"testing"

	"thematicep/internal/event"
)

// divisibilityMatcher is a deterministic content-dependent test matcher:
// event value j scores 1 against subscription value k when k divides j,
// and a sub-threshold 0.2 otherwise, so every subscriber matches a
// different subset of the event stream.
func divisibilityMatcher() MatchFunc {
	return func(s *event.Subscription, e *event.Event) float64 {
		k, _ := strconv.Atoi(s.Predicates[0].Value)
		j, _ := strconv.Atoi(e.Tuples[0].Value)
		if k > 0 && j%k == 0 {
			return 1
		}
		return 0.2
	}
}

// publishAndCollect runs nEvents through a broker with the given match
// parallelism and nSubs divisibility subscribers, returning each
// subscriber's delivered event IDs (in delivery order) and the final stats.
func publishAndCollect(t *testing.T, parallelism, nSubs, nEvents int) (map[string][]string, Stats) {
	t.Helper()
	b := New(divisibilityMatcher(),
		WithThreshold(0.5), WithReplayBuffer(0), WithQueueSize(nEvents+1),
		WithMatchParallelism(parallelism))
	defer b.Close()
	subs := make([]*Subscriber, nSubs)
	for i := range subs {
		s, err := b.Subscribe(&event.Subscription{
			ID:         fmt.Sprintf("s%d", i+1),
			Predicates: []event.Predicate{{Attr: "n", Value: strconv.Itoa(i + 1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	for j := 1; j <= nEvents; j++ {
		e := &event.Event{
			ID:     fmt.Sprintf("e%d", j),
			Tuples: []event.Tuple{{Attr: "n", Value: strconv.Itoa(j)}},
		}
		if err := b.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	// Publish is synchronous: all deliveries are queued once it returns.
	got := make(map[string][]string, nSubs)
	for _, s := range subs {
		var ids []string
	drain:
		for {
			select {
			case d := <-s.C():
				ids = append(ids, d.Event.ID)
			default:
				break drain
			}
		}
		got[s.ID()] = ids
	}
	return got, b.Stats()
}

// TestPublishParallelMatchesSerial checks that the worker pool is an
// invisible optimization: with 4 workers every subscriber receives
// exactly the deliveries (and the broker exactly the stats) of a
// single-worker broker, and exactly the events its divisor divides.
// Per-subscriber delivery order is also preserved, because events are
// published one at a time and each subscriber has a FIFO queue.
func TestPublishParallelMatchesSerial(t *testing.T) {
	const nSubs, nEvents = 8, 60
	serial, serialStats := publishAndCollect(t, 1, nSubs, nEvents)
	par, parStats := publishAndCollect(t, 4, nSubs, nEvents)

	for k := 1; k <= nSubs; k++ {
		id := fmt.Sprintf("s%d", k)
		var want []string
		for j := k; j <= nEvents; j += k {
			want = append(want, fmt.Sprintf("e%d", j))
		}
		for _, run := range []struct {
			name string
			got  []string
		}{{"serial", serial[id]}, {"parallel", par[id]}} {
			if len(run.got) != len(want) {
				t.Fatalf("sub %s: %s delivered %d events, want %d", id, run.name, len(run.got), len(want))
			}
			for i := range want {
				if run.got[i] != want[i] {
					t.Errorf("sub %s delivery %d: %s %s, want %s", id, i, run.name, run.got[i], want[i])
				}
			}
		}
	}
	if parStats != serialStats {
		t.Errorf("stats: parallel %+v, serial %+v", parStats, serialStats)
	}
}
