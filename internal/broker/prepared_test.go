package broker

import (
	"fmt"
	"sync/atomic"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/text"
)

// countedEvent is the prepared event of countingStream: the event's
// canonical tuple terms.
type countedEvent struct{ attrs, values []string }

func (e countedEvent) CanonicalTuples() (attrs, values []string) { return e.attrs, e.values }

// streamCounts counts the calls a countingStream receives.
type streamCounts struct {
	subPrepares, evPrepares, scored, legacy atomic.Int64
}

// countingStream is a PreparedStream whose every candidate scores 1 and
// whose every call is counted. legacy counts calls to the four arguments
// the broker no longer uses (score, prepareEv, scorePrepared, scoreBatch).
func countingStream(c *streamCounts) matchEngine {
	legacyScore := func() float64 { c.legacy.Add(1); return 1 }
	return PreparedStream(
		func(*event.Subscription, *event.Event) float64 { return legacyScore() },
		func(s *event.Subscription) string { c.subPrepares.Add(1); return s.ID },
		func(*event.Event) countedEvent { legacyScore(); return countedEvent{} },
		func(string, countedEvent) float64 { return legacyScore() },
		func(_ []string, _ countedEvent, out []float64) []float64 { legacyScore(); return out },
		func() struct{} { return struct{}{} },
		func(_ struct{}, e *event.Event) countedEvent {
			c.evPrepares.Add(1)
			var ce countedEvent
			for _, t := range e.Tuples {
				ce.attrs = append(ce.attrs, text.Canonical(t.Attr))
				ce.values = append(ce.values, text.Canonical(t.Value))
			}
			return ce
		},
		func(struct{}) struct{} { return struct{}{} },
		func(_ struct{}, subs []string, _ countedEvent, out []float64) []float64 {
			c.scored.Add(int64(len(subs)))
			for range subs {
				out = append(out, 1)
			}
			return out
		},
		func(struct{}) (uint64, uint64, uint64, uint64) { return 0, 0, 0, 0 },
	)
}

// TestPreparedAdapterPreparesOnce checks the prepare-once contract of
// PreparedStream: each subscription is prepared exactly once at Subscribe
// time, each event exactly once per publish, and all scoring goes through
// the batch-context scorer — the scalar entry points are never consulted.
func TestPreparedAdapterPreparesOnce(t *testing.T) {
	var c streamCounts
	b := New(countingStream(&c), WithReplayBuffer(0), WithMatchParallelism(4))
	defer b.Close()

	const nSubs, nEvents = 3, 10
	for i := 0; i < nSubs; i++ {
		if _, err := b.Subscribe(parkingSub()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nEvents; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.subPrepares.Load(); n != nSubs {
		t.Errorf("subscription prepares = %d, want %d", n, nSubs)
	}
	if n := c.evPrepares.Load(); n != nEvents {
		t.Errorf("event prepares = %d, want %d", n, nEvents)
	}
	if n := c.scored.Load(); n != nSubs*nEvents {
		t.Errorf("batch-context scores = %d, want %d", n, nSubs*nEvents)
	}
	if n := c.legacy.Load(); n != 0 {
		t.Errorf("scalar entry points called %d times", n)
	}
	if st := b.Stats(); st.Matched != nSubs*nEvents {
		t.Errorf("matched = %d, want %d", st.Matched, nSubs*nEvents)
	}
}

// TestPreparedReplayUsesPreparedPath checks that replay on Subscribe also
// scores through the batch context: one prepare per replayed event and no
// scalar scoring.
func TestPreparedReplayUsesPreparedPath(t *testing.T) {
	var c streamCounts
	b := New(countingStream(&c))
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	published := c.evPrepares.Load()
	s, err := b.Subscribe(parkingSub(), WithReplay(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d := recvDelivery(t, s.C()); !d.Replayed {
			t.Errorf("delivery %d not replayed", i)
		}
	}
	if n := c.evPrepares.Load() - published; n != 3 {
		t.Errorf("replay prepared %d events, want 3", n)
	}
	if n := c.scored.Load(); n != 3 {
		t.Errorf("replay scored %d pairs through the batch context, want 3", n)
	}
	if n := c.legacy.Load(); n != 0 {
		t.Errorf("scalar entry points called %d times during replay", n)
	}
}
