package main

import (
	"math"
	"sort"
	"sync"

	"thematicep/internal/corpus"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/subindex"
	"thematicep/internal/vocab"
)

// daemonCorpusSeed is thematicd's default -seed: the reference space
// must be built from the same corpus the daemons index.
const daemonCorpusSeed = 42

// scoreTolerance absorbs float formatting only; the daemon's batched
// scorer is specified bit-identical to the scalar one.
const scoreTolerance = 1e-9

func buildSpace() *semantics.Space {
	cfg := corpus.DefaultConfig()
	cfg.Seed = daemonCorpusSeed
	return semantics.NewSpace(index.Build(corpus.Generate(vocab.AllDomains(), cfg)))
}

// want is one delivery the reference predicts for a template.
type want struct {
	sub   int32
	score float64
}

// reference is the expected delivery set, computed in-process with the
// scalar matcher (matcher.Score: Hungarian assignment over the raw
// similarity matrix) over the subscription index's candidates — not the
// prepared, batched, arena-memoised scorer the daemon runs.
type reference struct {
	m         *matcher.Matcher
	threshold float64
	in        *inputs
	top       *topology
	home      []int
	want      [][]want           // per template, ascending sub
	churn     map[[2]int]float64 // (churn pool index, template) -> score
}

func newReference(m *matcher.Matcher, sp *spec, in *inputs, top *topology, home []int) *reference {
	r := &reference{m: m, threshold: sp.threshold, in: in, top: top, home: home,
		want: make([][]want, len(in.events)), churn: make(map[[2]int]float64)}
	ix := subindex.New[int32]()
	for i, s := range in.subs {
		ix.Add(s.ID, s, int32(i))
	}
	// Two workers: the host this runs on has two cores.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < len(in.events); t += 2 {
				e := in.events[t]
				var got []want
				ix.Candidates(e, func(i int32) {
					sub := in.subs[i]
					if !top.routable(sub, home[i], e) {
						return
					}
					if s := m.Score(sub, e); s >= sp.threshold && s > 0 {
						got = append(got, want{i, s})
					}
				})
				sort.Slice(got, func(a, b int) bool { return got[a].sub < got[b].sub })
				r.want[t] = got
			}
		}(w)
	}
	wg.Wait()
	return r
}

// lookup returns the reference score of (sub, template).
func (r *reference) lookup(sub int32, tmpl int) (float64, bool) {
	ws := r.want[tmpl]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].sub >= sub })
	if i < len(ws) && ws[i].sub == sub {
		return ws[i].score, true
	}
	return 0, false
}

// churnAllowed reports whether churn subscription k (registered at node
// 1 of a federation, or node 0 alone) may receive template tmpl with
// this score. Churn deliveries are allowed, not required: a
// subscription's registration races the events around it.
func (r *reference) churnAllowed(k, tmpl int, score float64) bool {
	sub := r.in.churn[k%len(r.in.churn)]
	e := r.in.events[tmpl]
	if !r.top.routable(sub, len(r.top.nodes)-1, e) {
		return false
	}
	key := [2]int{k % len(r.in.churn), tmpl}
	s, ok := r.churn[key]
	if !ok {
		s = r.m.Score(sub, e)
		r.churn[key] = s
	}
	return s >= r.threshold && s > 0 && sameScore(s, score)
}

func sameScore(a, b float64) bool { return math.Abs(a-b) <= scoreTolerance }

// perEvent is the mean expected deliveries per template.
func (r *reference) perEvent() float64 {
	n := 0
	for _, ws := range r.want {
		n += len(ws)
	}
	return float64(n) / float64(len(r.want))
}
