package main

import (
	"fmt"
	"math/rand"
	"time"

	"thematicep/internal/cluster"
	"thematicep/internal/event"
	"thematicep/internal/workload"
)

// spec is one benchmark workload: the generated inputs, the daemon
// configuration, and the offered-load plan. README.md records why each
// workload exists and the shape measured on it.
type spec struct {
	name      string
	threshold float64
	// cfg shapes the generated population; Seed, Events and the churn
	// pool are filled in per run.
	cfg workload.ScaleConfig
	// batch is the events per publishb frame; 1 sends single-event
	// publish frames (the broker's serial Publish path).
	batch int
	// nodes is 1 (one daemon) or 2 (a -peers federation; the publisher
	// connects to the first).
	nodes int
	// limit is how long the generator waits for a phase's last
	// acknowledgements and deliveries, and for an outstanding frame in
	// the closed loop, before it counts what is missing as lost.
	limit time.Duration
	// refRate is the fixed reference rate (ev/s) the latency, cost and
	// correctness metrics are taken at.
	refRate float64
	// inflight is how many frames the closed-loop phase that measures
	// sustained_eps keeps outstanding: enough that the daemon always has
	// the next frame queued, few enough that no queue drops.
	inflight int
	// churnHz is the subscribe+unsubscribe frame rate running beside the
	// reference phase, on its own connection.
	churnHz float64
	// fsync is the daemons' WAL policy; empty runs without -data-dir.
	fsync string
	// parallelism is the daemons' -match-parallelism; 0 keeps the default
	// (one worker per core).
	parallelism int
	// templates is the number of distinct events; published events cycle
	// through them under fresh IDs.
	templates int
	// fixedTemplates draws the templates from populationSeed instead of
	// --seed, which then draws only their order and the churn.
	fixedTemplates bool
}

const churnPool = 256

var specs = []*spec{
	{
		name:      "match-wide",
		threshold: 0.5,
		cfg:       selective(workload.DefaultScaleConfig(50000)),
		batch:     16,
		nodes:     1,
		limit:     150 * time.Millisecond,
		refRate:   100,
		inflight:  2,
		// One matching worker: with two, a frame's scoring ran on one core
		// or on both depending on what else held the second one, and the
		// run's latency and capacity split into two modes ~35% apart.
		parallelism: 1,
		churnHz:     40,
		templates:   256,
		// A 50k population's cost per event is heavy-tailed: one seed's
		// 256 templates cost 16% more CPU per event than the next, run
		// after run, which buried any change under input variance.
		fixedTemplates: true,
	},
	{
		name:      "fanout-single",
		threshold: 0.2,
		cfg:       workload.DefaultScaleConfig(2000),
		batch:     1,
		nodes:     1,
		limit:     100 * time.Millisecond,
		refRate:   400,
		inflight:  32,
		churnHz:   40,
		templates: 512,
	},
	{
		name:      "hop-churn",
		threshold: 0.2,
		cfg:       workload.DefaultScaleConfig(2000),
		batch:     8,
		nodes:     2,
		limit:     100 * time.Millisecond,
		refRate:   250,
		inflight:  8,
		churnHz:   40,
		fsync:     "100ms",
		// One matching worker per node, as on match-wide: two nodes of two
		// workers each, beside the generator, are four matchers on two
		// cores.
		parallelism: 1,
		templates:   512,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// selective makes most predicate slots exact over a wide value
// vocabulary, so the index keeps a small share of a large population.
func selective(c workload.ScaleConfig) workload.ScaleConfig {
	c.ValuesPerAttr = 256
	c.ExactFraction = 0.95
	return c
}

// populationSeed fixes each workload's steady subscription population
// (DefaultScaleConfig's own seed, as repro uses): a 2k population's
// deliveries per event move by a fifth from one seed to the next, which
// would bury any change under input variance. --seed draws the events,
// their order and the churn subscriptions.
const populationSeed = 7

// inputs are everything one run publishes and registers.
type inputs struct {
	subs   []*event.Subscription // steady population, IDs "s<i>"
	churn  []*event.Subscription // churn pool, registered as "c<k>"
	events []*event.Event        // templates, published as "e<seq>"
	order  []int32               // template index of each seq
}

func generate(s *spec, seed int64) *inputs {
	pop := s.cfg
	pop.Seed = populationSeed
	pop.Events = 0
	drawn := s.cfg
	drawn.Seed = seed
	drawn.Subscriptions = churnPool
	drawn.Events = s.templates
	w := workload.GenerateScale(drawn)
	in := &inputs{churn: w.Subs, events: w.Events}
	if s.fixedTemplates {
		drawn.Seed = populationSeed
		in.events = workload.GenerateScale(drawn).Events
	}
	for i, sub := range workload.GenerateScale(pop).Subs {
		cp := *sub
		cp.ID = fmt.Sprintf("s%d", i)
		in.subs = append(in.subs, &cp)
	}
	for i := range in.events {
		cp := *in.events[i]
		cp.ID = ""
		in.events[i] = &cp
	}
	// Each pass over the templates is a fresh permutation, so batches
	// mix different events on every pass instead of repeating a handful
	// of fixed frames, and the first pass (the warm-up) holds each
	// template once.
	rng := rand.New(rand.NewSource(seed))
	for len(in.order) < orderLen {
		for _, t := range rng.Perm(len(in.events)) {
			in.order = append(in.order, int32(t))
		}
	}
	return in
}

// orderLen is more events than any run publishes; beyond it the order
// repeats.
const orderLen = 1 << 20

func (in *inputs) template(seq int) int { return int(in.order[seq%len(in.order)]) }

// topology models where the federation places subscriptions and matches
// events, from the same ring the daemons build. With one node every
// subscription is local and every event is matched there.
type topology struct {
	nodes []string // nodes[0] is where the publisher connects
	ring  *cluster.Ring
}

func newTopology(nodes []string) *topology {
	t := &topology{nodes: nodes}
	if len(nodes) > 1 {
		t.ring = cluster.NewRing(nodes, 0)
	}
	return t
}

// bit returns node id's bit in a node set.
func (t *topology) bit(id string) uint8 {
	for i, n := range t.nodes {
		if n == id {
			return 1 << i
		}
	}
	return 0
}

func (t *topology) owners(theme []string) uint8 {
	var m uint8
	for _, o := range t.ring.Owners(theme) {
		m |= t.bit(o)
	}
	return m
}

// home is the node a subscription registers at when it is sent to node
// `at` and follows at most one redirect: a node owning none of a themed
// subscription's tags points at the first owner.
func (t *topology) home(sub *event.Subscription, at int) int {
	if t.ring == nil || len(sub.Theme) == 0 {
		return at
	}
	owners := t.ring.Owners(sub.Theme)
	for _, o := range owners {
		if o == t.nodes[at] {
			return at
		}
	}
	for i, n := range t.nodes {
		if n == owners[0] {
			return i
		}
	}
	return at
}

// remote counts, per node, the registrations it hosts for subscriptions
// homed elsewhere: one on every other owner of a subscription's tags, or
// on every other node for an untagged one.
func (t *topology) remote(subs []*event.Subscription, home []int) []int {
	out := make([]int, len(t.nodes))
	all := uint8(1<<len(t.nodes) - 1)
	for i, s := range subs {
		regs := all
		if len(s.Theme) > 0 {
			regs = t.owners(s.Theme)
		}
		for j := range t.nodes {
			if j != home[i] && regs&(1<<j) != 0 {
				out[j]++
			}
		}
	}
	return out
}

// routable reports whether a subscription homed at node `home` can see
// an event published at nodes[0]: it is registered at its home and at
// every owner of its tags, and the event is matched at the publishing
// node and forwarded to every owner of its tags (all nodes when untagged).
func (t *topology) routable(sub *event.Subscription, home int, ev *event.Event) bool {
	if t.ring == nil {
		return true
	}
	regs := uint8(1) << home
	matched := uint8(1)
	if len(sub.Theme) == 0 {
		regs = 1<<len(t.nodes) - 1
	} else {
		regs |= t.owners(sub.Theme)
	}
	if len(ev.Theme) == 0 {
		matched = 1<<len(t.nodes) - 1
	} else {
		matched |= t.owners(ev.Theme)
	}
	return regs&matched != 0
}
