package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/workload"
)

var (
	pruneSpaceOnce sync.Once
	pruneSpace     *semantics.Space
)

func evalSpace(t testing.TB) *semantics.Space {
	t.Helper()
	pruneSpaceOnce.Do(func() {
		pruneSpace = semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	})
	return pruneSpace
}

// thematicMatcher is the thematic matcher wired as thematicd wires it.
func thematicMatcher(t testing.TB) matchEngine {
	m := matcher.New(evalSpace(t))
	return PreparedStream(
		m.Score, m.PrepareSubscription, m.PrepareEvent, m.ScorePrepared, m.ScoreBatch,
		m.NewEventBatch, m.PrepareEventInBatch, m.NewBatchArena, m.ScoreBatchInArena,
		m.FinishEventBatch)
}

// mixedThemeWorkload builds a seeded workload whose events and
// subscriptions carry varied theme tag sets (several distinct compiled-theme
// groups, including empty themes), with both exact and fully approximate
// subscriptions.
func mixedThemeWorkload(t testing.TB, seed int64) ([]*event.Subscription, []*event.Event) {
	t.Helper()
	w := workload.Generate(workload.Config{
		Seed:            seed,
		SeedEvents:      30,
		ExpandedPerSeed: 2,
		Subscriptions:   30,
		MaxPredicates:   3,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	pool := w.ThemePool()
	pickTheme := func() []string {
		n := rng.Intn(3) // 0, 1 or 2 tags
		th := make([]string, 0, n)
		for len(th) < n {
			th = append(th, pool[rng.Intn(len(pool))])
		}
		return th
	}

	var subs []*event.Subscription
	for i := range w.ExactSubs {
		e, a := w.ExactSubs[i], w.ApproxSubs[i]
		e.Theme = pickTheme()
		a.Theme = pickTheme()
		subs = append(subs, e, a)
	}
	for _, ev := range w.Events {
		ev.Theme = pickTheme()
	}
	return subs, w.Events
}

type deliveryKey struct {
	SubID   string
	EventID string
	Score   float64
}

// TestPruningDeliveryEquivalence is the pruning acceptance criterion: over a
// seeded mixed-theme workload grid, the pruned broker's delivery set —
// including exact scores — is bit-identical to the unpruned scan, while the
// index reports a substantial number of pruned candidates.
func TestPruningDeliveryEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			subs, events := mixedThemeWorkload(t, seed)
			pruned, prunedStats := runBrokerWith(t, thematicMatcher(t), subs, events, 1, WithMatchParallelism(1))
			full, fullStats := runBrokerWith(t, thematicMatcher(t), subs, events, 1, WithMatchParallelism(1), WithPruning(false))

			if len(pruned) != len(full) {
				t.Errorf("delivery counts differ: pruned %d, full %d", len(pruned), len(full))
			}
			for k := range full {
				if !pruned[k] {
					t.Errorf("pruning lost delivery %+v", k)
				}
			}
			for k := range pruned {
				if !full[k] {
					t.Errorf("pruning invented delivery %+v", k)
				}
			}

			if prunedStats.Pruned == 0 {
				t.Error("pruned broker reports 0 pruned candidates on a mixed workload")
			}
			if fullStats.Pruned != 0 {
				t.Errorf("unpruned broker reports %d pruned candidates", fullStats.Pruned)
			}
			if prunedStats.Scanned+prunedStats.Pruned != fullStats.Scanned {
				t.Errorf("scanned+pruned = %d, want the full scan count %d",
					prunedStats.Scanned+prunedStats.Pruned, fullStats.Scanned)
			}
			t.Logf("scanned %d, pruned %d of %d pairs (%.0f%%)",
				prunedStats.Scanned, prunedStats.Pruned, fullStats.Scanned,
				100*float64(prunedStats.Pruned)/float64(fullStats.Scanned))
		})
	}
}

// TestPruningDisabledForPlainMatchers verifies the conservative gate: a
// MatchFunc is never pruned, so baselines with looser exact-term semantics
// keep full-scan behavior.
func TestPruningDisabledForPlainMatchers(t *testing.T) {
	b := New(exactMatcher()) // pruning defaults on, but a MatchFunc is pairwise
	defer b.Close()
	if b.index != nil {
		t.Fatal("plain matcher got a pruning index")
	}
	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Pruned != 0 || st.Scanned != 1 {
		t.Errorf("stats = %+v, want full scan with 0 pruned", st)
	}
}
