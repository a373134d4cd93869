package main

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		q         float64
		want      float64
		wantUsed  float64
		supported bool
	}{
		// 10,000 samples: the 99th percentile has 100 beyond it.
		{n: 10000, q: 0.99, want: 9900, wantUsed: 0.99, supported: true},
		// 1,000 samples: rank 990 leaves exactly 10 beyond.
		{n: 1000, q: 0.99, want: 990, wantUsed: 0.99, supported: true},
		// 500 samples: rank 495 would leave 5, so it drops to rank 490.
		{n: 500, q: 0.99, want: 490, wantUsed: 0.98, supported: true},
		// 11 samples: only the minimum has ten beyond it.
		{n: 11, q: 0.99, want: 1, wantUsed: 1.0 / 11, supported: true},
		// Ten or fewer samples support no tail percentile.
		{n: 10, q: 0.99, supported: false},
		// The median is untouched by the rule when samples suffice.
		{n: 100, q: 0.5, want: 50, wantUsed: 0.5, supported: true},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, used, ok := tail(xs, c.q)
		if ok != c.supported {
			t.Fatalf("n=%d q=%v: supported=%v, want %v", c.n, c.q, ok, c.supported)
		}
		if !ok {
			continue
		}
		if v != c.want || math.Abs(used-c.wantUsed) > 1e-12 {
			t.Errorf("n=%d q=%v: got %v at quantile %v, want %v at %v", c.n, c.q, v, used, c.want, c.wantUsed)
		}
		if beyond := c.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d q=%v: only %d samples beyond the reported value", c.n, c.q, beyond)
		}
	}
}

// fakeClock advances only when the scheduler sleeps or a send blocks.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		period = int64(time.Millisecond)
		frames = 10
		stall  = int64(5 * time.Millisecond)
	)
	clk := &fakeClock{}
	var dues, sent []int64
	lags := openLoop(clk, 0, float64(period), frames, func(i int, due int64) {
		dues = append(dues, due)
		sent = append(sent, clk.now())
		if i == 2 {
			// The write of frame 2 blocks: the server stopped reading.
			clk.t += stall
		}
	})
	for i, due := range dues {
		if due != int64(i)*period {
			t.Fatalf("frame %d due at %d, want %d: a stall must not move later due times", i, due, int64(i)*period)
		}
	}
	// Frames 3..7 were due during the stall and leave as soon as it ends,
	// each late by the rest of the stall; a server answering instantly
	// still shows that wait as latency, because latency runs from due.
	stallEnd := 2*period + stall
	for i := 3; i < frames; i++ {
		wantSent := max(int64(i)*period, stallEnd)
		if sent[i] != wantSent {
			t.Errorf("frame %d sent at %d, want %d", i, sent[i], wantSent)
		}
		if lags[i] != wantSent-dues[i] {
			t.Errorf("frame %d lag %d, want %d", i, lags[i], wantSent-dues[i])
		}
		latency := sent[i] - dues[i]
		if i < 7 && latency <= 0 {
			t.Errorf("frame %d queued behind the stall but measured latency %d", i, latency)
		}
	}
	for i := 0; i <= 2; i++ {
		if lags[i] != 0 {
			t.Errorf("frame %d before the stall has lag %d", i, lags[i])
		}
	}
}

func TestOpenLoopReportsGeneratorStall(t *testing.T) {
	clk := &stallingClock{stallAt: 3 * int64(time.Millisecond), stall: int64(4 * time.Millisecond)}
	lags := openLoop(clk, 0, float64(time.Millisecond), 8, func(int, int64) {})
	// The generator itself overslept at frame 3: that send and the ones
	// due before it woke up left late.
	want := []int64{0, 0, 0, 4, 3, 2, 1, 0}
	for i, l := range lags {
		if l != want[i]*int64(time.Millisecond) {
			t.Errorf("frame %d lag %v, want %v", i, time.Duration(l), time.Duration(want[i])*time.Millisecond)
		}
	}
}

// stallingClock oversleeps once, when asked to wake at stallAt.
type stallingClock struct {
	fakeClock
	stallAt, stall int64
	done           bool
}

func (c *stallingClock) sleepUntil(t int64) {
	c.fakeClock.sleepUntil(t)
	if t == c.stallAt && !c.done {
		c.done = true
		c.t += c.stall
	}
}

func TestFailRatio(t *testing.T) {
	cases := []struct {
		t    tally
		want float64
	}{
		{tally{}, 0},
		{tally{published: 100, expected: 900}, 0},
		{tally{published: 100, expected: 900, refused: 10}, 10.0 / 1000},
		{tally{published: 100, expected: 900, lost: 3, duplicated: 2, unexpected: 5}, 10.0 / 1000},
		{tally{published: 10, expected: 0, refused: 10}, 1},
		// A wrong score fails the run on its own; it is not a loss.
		{tally{published: 10, expected: 90, wrongScore: 4}, 0},
	}
	for _, c := range cases {
		if got := c.t.failRatio(); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%+v: fail ratio %v, want %v", c.t, got, c.want)
		}
	}
	var sum tally
	sum.add(tally{published: 1, lost: 1})
	sum.add(tally{expected: 3, duplicated: 2})
	if sum.failed() != 3 || sum.published+sum.expected != 4 {
		t.Errorf("add: %+v", sum)
	}
}

func TestDeliveryParseMatchesEncoder(t *testing.T) {
	clk := newWallClock()
	at := time.Now()
	ev := &event.Event{ID: "e42", Theme: []string{"energy"}, Tuples: []event.Tuple{{Attr: "type", Value: "spike"}}}
	for _, c := range []struct {
		sub  string
		want int32
	}{{"s7", 7}, {"c3", -4}} {
		payload, err := json.Marshal(&broker.Frame{Type: broker.FrameDelivery, Event: ev,
			SubscriptionID: c.sub, Score: 0.6180339887498949, At: at})
		if err != nil {
			t.Fatal(err)
		}
		d, ok, err := parseDelivery(payload, clk)
		if !ok || err != nil {
			t.Fatalf("%s: ok=%v err=%v", payload, ok, err)
		}
		if d.seq != 42 || d.sub != c.want || d.score != 0.6180339887498949 || d.at != clk.fromWall(at) {
			t.Errorf("%s parsed as %+v", payload, d)
		}
	}
	if _, ok, _ := parseDelivery([]byte(`{"type":"ok"}`), clk); ok {
		t.Error("an ok frame parsed as a delivery")
	}
}

func TestEventCodecFramesDecode(t *testing.T) {
	in := &inputs{
		events: []*event.Event{
			{Theme: []string{"parking"}, Tuples: []event.Tuple{{Attr: "zone", Value: "north"}}},
			{Tuples: []event.Tuple{{Attr: "type", Value: "spike"}, {Attr: "city", Value: "galway"}}},
		},
		order: []int32{1, 0},
	}
	c, err := newEventCodec(in.events)
	if err != nil {
		t.Fatal(err)
	}
	var f broker.Frame
	if err := json.Unmarshal(c.payload(in, 5, 1, false), &f); err != nil {
		t.Fatal(err)
	}
	// order maps seq 5 to template 0, seq 6 to template 1, seq 7 to 0.
	if f.Type != broker.FramePublish || f.Event.ID != "e5" || f.Event.Tuples[0].Attr != "zone" {
		t.Errorf("publish frame decoded as %+v", f)
	}
	f = broker.Frame{}
	if err := json.Unmarshal(c.payload(in, 6, 2, true), &f); err != nil {
		t.Fatal(err)
	}
	if f.Type != broker.FramePublishBatch || len(f.Events) != 2 || f.Events[0].ID != "e6" || f.Events[1].ID != "e7" ||
		len(f.Events[0].Tuples) != 2 || f.Events[1].Theme[0] != "parking" {
		t.Errorf("publishb frame decoded as %+v", f)
	}
}

func TestTopologyFollowsTheRing(t *testing.T) {
	nodes := []string{"127.0.0.1:27170", "127.0.0.1:27171"}
	top := newTopology(nodes)
	ring := cluster.NewRing(nodes, 0)
	tags := []string{"energy", "transport", "environment", "water supply", "waste management", "parking"}
	owner := map[string]int{}
	for _, tag := range tags {
		owner[tag] = slices.Index(nodes, ring.Owner(tag))
	}
	var onA, onB string
	for _, tag := range tags {
		if owner[tag] == 0 && onA == "" {
			onA = tag
		}
		if owner[tag] == 1 && onB == "" {
			onB = tag
		}
	}
	if onA == "" || onB == "" {
		t.Fatalf("ring puts every tag on one node: %v", owner)
	}
	sub := func(theme ...string) *event.Subscription { return &event.Subscription{Theme: theme} }
	ev := func(theme ...string) *event.Event { return &event.Event{Theme: theme} }
	// A node owning none of a subscription's tags redirects it to the owner.
	if h := top.home(sub(onB), 0); h != 1 {
		t.Errorf("subscription tagged %q homed at %d, want 1", onB, h)
	}
	if h := top.home(sub(onA, onB), 0); h != 0 {
		t.Errorf("subscription spanning both shards homed at %d, want 0", h)
	}
	if h := top.home(sub(), 0); h != 0 {
		t.Errorf("untagged subscription homed at %d, want 0", h)
	}
	// Events are matched where published (node 0) and at their tags' owners.
	cases := []struct {
		s    *event.Subscription
		e    *event.Event
		want bool
	}{
		{sub(onB), ev(onB), true},      // forwarded to node 1
		{sub(onB), ev(onA), false},     // never leaves node 0, where s is not registered
		{sub(onB), ev(), true},         // untagged events go everywhere
		{sub(), ev(onA), true},         // untagged subscriptions are everywhere
		{sub(onA), ev(onB), true},      // node 0 matches what it publishes
		{sub(onA, onB), ev(onA), true}, // registered on both
	}
	for _, c := range cases {
		if got := top.routable(c.s, top.home(c.s, 0), c.e); got != c.want {
			t.Errorf("sub %v event %v: routable=%v, want %v", c.s.Theme, c.e.Theme, got, c.want)
		}
	}
	subs := []*event.Subscription{sub(onB), sub(onA, onB), sub(), sub(onA)}
	home := []int{1, 0, 0, 0}
	if got := top.remote(subs, home); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("remote registrations %v, want [0 2]", got)
	}
}

func TestClosedLoopRatesPerWindow(t *testing.T) {
	// Frames of 4 events sent 10 ms apart, then 20 ms apart: 400 ev/s in
	// the first half of the phase and 200 ev/s in the second.
	var sends []int64
	at := int64(0)
	for i := 0; i <= 20; i++ {
		sends = append(sends, at)
		if i < 10 {
			at += int64(10 * time.Millisecond)
		} else {
			at += int64(20 * time.Millisecond)
		}
	}
	p := &phase{sends: sends}
	got := p.rates(2, 4)
	if len(got) != 2 || math.Abs(got[0]-400) > 1e-9 || math.Abs(got[1]-200) > 1e-9 {
		t.Fatalf("rates = %v, want [400 200]", got)
	}
	if a := p.achieved(4); math.Abs(a-80/0.3) > 1e-9 {
		t.Fatalf("achieved = %v, want %v", a, 80/0.3)
	}
}
