package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// genLagLimit is how late the generator's sends may leave (p99) before
// its numbers stop measuring thematicd rather than the generator.
const genLagLimit = 10 * time.Millisecond

// bench is one run's live state: daemons, connections and everything
// sent and received.
type bench struct {
	sp    *spec
	in    *inputs
	bin   string // thematicd binary
	work  string // scratch directory inside the checkout
	clk   *wallClock
	codec *eventCodec

	rec     *recorder
	daemons []*daemon
	conns   []*wconn
	top     *topology
	home    []int // home node of each steady subscription
	ref     *reference

	seq    int     // next event seq
	due    []int64 // due time of every seq sent
	churn  int     // next churn subscription number
	setups int
	// redirected is the share of the population that followed a redirect.
	redirected float64
	seed       int64
}

// setup starts the daemons, registers the steady population (following
// redirects) and, in a federation, waits until every remote registration
// has landed. It returns the time from exec to that point.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	b.setups++
	n := b.sp.nodes
	ports, err := freePorts(2 * n)
	if err != nil {
		return 0, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	b.daemons = make([]*daemon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		args := []string{"-addr", addrs[i], "-threshold", strconv.FormatFloat(b.sp.threshold, 'g', -1, 64),
			"-drain-timeout", "1s"}
		metrics := fmt.Sprintf("127.0.0.1:%d", ports[n+i])
		args = append(args, "-metrics", metrics)
		if n > 1 {
			args = append(args, "-peers", addrs[1-i])
		}
		if b.sp.parallelism > 0 {
			args = append(args, "-match-parallelism", strconv.Itoa(b.sp.parallelism))
		}
		if b.sp.fsync != "" {
			dir := filepath.Join(b.work, fmt.Sprintf("data-%d-%d", b.setups, i))
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			args = append(args, "-data-dir", dir, "-fsync", b.sp.fsync)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.daemons[i], errs[i] = startDaemon(b.bin, args, addrs[i], metrics)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	b.rec = &recorder{clk: b.clk, signal: make(chan struct{}, 1)}
	// Two connections in all: one per node, or, with one node, a second
	// one for churn (dialed when churn starts: the server drops a
	// connection that stays silent past its handshake timeout).
	b.conns = make([]*wconn, 2)
	for i := 0; i < n; i++ {
		if b.conns[i], err = dial(b.daemons[i].addr, b.rec); err != nil {
			return 0, err
		}
	}
	b.top = newTopology(addrs)

	// Every subscription goes to the node the publisher uses; a node
	// owning none of its tags answers with a redirect to the owner.
	for i, s := range b.in.subs {
		if err := b.conns[0].send(pending{kind: kindSubscribe, first: i}, subscribePayload(s, s.ID)); err != nil {
			return 0, err
		}
	}
	acks, err := b.waitAcks(kindSubscribe, len(b.in.subs), 60*time.Second)
	if err != nil {
		return 0, err
	}
	b.home = make([]int, len(b.in.subs))
	var moved []int
	for _, a := range acks {
		switch a.status {
		case 'o':
			if b.top.home(b.in.subs[a.first], 0) != 0 {
				return 0, fmt.Errorf("subscription %d accepted by a node the ring says does not own it", a.first)
			}
		case 'r':
			to := -1
			for j, addr := range addrs {
				if addr == a.addr {
					to = j
				}
			}
			if to < 0 || to != b.top.home(b.in.subs[a.first], 0) {
				return 0, fmt.Errorf("subscription %d redirected to %s, not to the ring owner", a.first, a.addr)
			}
			b.home[a.first] = to
			moved = append(moved, a.first)
		default:
			return 0, fmt.Errorf("subscription %d refused", a.first)
		}
	}
	b.redirected = float64(len(moved)) / float64(len(b.in.subs))
	for _, i := range moved {
		s := b.in.subs[i]
		if err := b.conns[b.home[i]].send(pending{kind: kindSubscribe, first: i}, subscribePayload(s, s.ID)); err != nil {
			return 0, err
		}
	}
	acks, err = b.waitAcks(kindSubscribe, len(b.in.subs)+len(moved), 60*time.Second)
	if err != nil {
		return 0, err
	}
	for _, a := range acks[len(b.in.subs):] {
		if a.status != 'o' {
			return 0, fmt.Errorf("redirected subscription %d not accepted (%c)", a.first, a.status)
		}
	}
	if n > 1 {
		if err := b.waitRemoteRegistrations(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// waitRemoteRegistrations polls each node's hosted remote-registration
// gauge until it equals what the ring predicts.
func (b *bench) waitRemoteRegistrations() error {
	want := b.top.remote(b.in.subs, b.home)
	deadline := time.Now().Add(60 * time.Second)
	for j, d := range b.daemons {
		for {
			got, err := d.scrape("thematicep_cluster_remote_subscriptions")
			if err == nil && int(got) == want[j] {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s hosts %v remote registrations, want %d (%v)", d.addr, got, want[j], err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// waitAcks waits until n acknowledgements of a kind have arrived and
// returns them in arrival order.
func (b *bench) waitAcks(kind, n int, timeout time.Duration) ([]ackRec, error) {
	deadline := time.Now().Add(timeout)
	var got []ackRec
	seen := 0
	for {
		_, acks := b.rec.snapshot()
		for _, a := range acks[seen:] {
			if a.kind == kind {
				got = append(got, a)
			}
		}
		seen = len(acks)
		if len(got) >= n {
			return got, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d acknowledgements after %s", len(got), n, timeout)
		}
		select {
		case <-b.rec.signal:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// collectGarbage makes every daemon run a full GC, through the pprof
// heap endpoint -metrics serves. Measured phases start right after one:
// a 50k-subscription heap is collected every few tens of seconds, and
// whether a phase happens to hold a collection would otherwise decide
// its figures. The generator collects its own heap too, which holds the
// reference and the semantic space.
func (b *bench) collectGarbage() error {
	runtime.GC()
	c := http.Client{Timeout: 30 * time.Second}
	for _, d := range b.daemons {
		resp, err := c.Get("http://" + d.metrics + "/debug/pprof/heap?gc=1")
		if err != nil {
			return fmt.Errorf("collect garbage: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("collect garbage: %w", err)
		}
	}
	return nil
}

// gcCycles is the daemons' summed completed GC cycles, or -1 when a
// daemon's /metrics cannot be read.
func (b *bench) gcCycles() int {
	n := 0
	for _, d := range b.daemons {
		v, err := d.scrape("thematicep_runtime_gc_total")
		if err != nil {
			return -1
		}
		n += int(v)
	}
	return n
}

// drops sums the daemons' loss counters: subscriber queue overflow and,
// federated, peer forward queue overflow.
func (b *bench) drops() map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"thematicep_broker_dropped_total", "thematicep_broker_shed_total",
		"thematicep_cluster_peer_queue_drops_total", "thematicep_cluster_forwards_shed_total"} {
		for _, d := range b.daemons {
			if v, err := d.scrape(name); err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// peakRSS is the daemons' summed peak RSS so far.
func (b *bench) peakRSS() int64 {
	var rss int64
	for _, d := range b.daemons {
		if v, err := d.peakRSS(); err == nil {
			rss += v
		}
	}
	return rss
}

// teardown closes the connections and stops every daemon.
func (b *bench) teardown() {
	for _, c := range b.conns {
		if c != nil {
			c.close()
		}
	}
	for _, d := range b.daemons {
		if d == nil {
			continue
		}
		if d.died() {
			fmt.Fprintf(os.Stderr, "thematicd %s exited unexpectedly (%v); its last output:\n", d.addr, d.cmd.ProcessState)
			d.mu.Lock()
			for _, l := range d.tail {
				fmt.Fprintln(os.Stderr, "  "+l)
			}
			d.mu.Unlock()
		}
		d.stop()
	}
	b.daemons, b.conns = nil, nil
}

func (b *bench) daemonCPU() time.Duration {
	var sum time.Duration
	for _, d := range b.daemons {
		if v, err := d.cpuTime(); err == nil {
			sum += v
		}
	}
	return sum
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is one stretch of publishing at a fixed offered rate.
type phase struct {
	name        string
	rate        float64
	first, end  int // event seq range
	lags        []int64
	start, last int64 // first due, last send
	drained     bool  // every publish acknowledged before the deadline
	// delBase and ackBase index the recorder's first records that can
	// belong to this phase.
	delBase, ackBase int
	cpu, genCPU      time.Duration
	wall             time.Duration
	// sends holds each frame's send time in a closed-loop phase; nil in
	// an open-loop one.
	sends []int64
}

// stealSample is one reading of the host's CPU counters.
type stealSample struct {
	at   int64
	host cpuTicks
}

// sampleSteal reads the host's CPU counters every 50 ms until stop
// closes.
func (b *bench) sampleSteal(stop <-chan struct{}, out chan<- []stealSample) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	var s []stealSample
	for {
		s = append(s, stealSample{b.clk.now(), hostCPU()})
		select {
		case <-stop:
			out <- s
			return
		case <-t.C:
		}
	}
}

// window is one slice of the reference phase with the host's steal
// share over its time span.
type window struct {
	phase *phase
	steal float64
}

// quietWindows splits the reference phase into refWindows windows and
// returns the half with the least CPU stolen by other guests.
func (b *bench) quietWindows(ms *measurement) []window {
	var ws []window
	for _, p := range ms.ref.windows(refWindows) {
		t0, t1 := b.due[p.first], b.due[p.end-1]
		var s0, s1 *stealSample
		for i := range ms.samples {
			if s := &ms.samples[i]; s.at <= t0 {
				s0 = s
			} else if s.at >= t1 && s1 == nil {
				s1 = s
			}
		}
		if s0 == nil || s1 == nil {
			continue
		}
		ws = append(ws, window{p, s1.host.stealShare(s0.host)})
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	return ws[:(len(ws)+1)/2]
}

// windows splits the phase into n consecutive parts by event.
func (p *phase) windows(n int) []*phase {
	out := make([]*phase, n)
	for i := range out {
		w := *p
		w.first = p.first + (p.end-p.first)*i/n
		w.end = p.first + (p.end-p.first)*(i+1)/n
		w.lags = nil
		out[i] = &w
	}
	return out
}

// achieved is the offered rate as the generator actually sent it; for a
// closed-loop phase, the rate its frames went out at.
func (p *phase) achieved(batch int) float64 {
	if p.sends != nil {
		return rate(p.sends, 0, len(p.sends)-1, batch)
	}
	n := p.end - p.first
	span := float64(p.last-p.start) + 1e9*float64(batch)/p.rate
	return float64(n) / (span / 1e9)
}

// publish runs one open-loop phase and waits for its acknowledgements
// and deliveries to settle.
func (b *bench) publish(name string, rate float64, dur time.Duration) (*phase, error) {
	batch := b.sp.batch
	frames := max(1, int(dur.Seconds()*rate/float64(batch)))
	period := 1e9 * float64(batch) / rate
	b.quiesce()
	dels, acks := b.rec.snapshot()
	p := &phase{name: name, rate: rate, first: b.seq, delBase: len(dels), ackBase: len(acks)}
	cpu0, gen0, wall0 := b.daemonCPU(), selfCPU(), time.Now()
	p.start = b.clk.now() + int64(5*time.Millisecond)
	var sendErr error
	p.lags = openLoop(b.clk, p.start, period, frames, func(i int, due int64) {
		if sendErr != nil {
			return
		}
		first := p.first + i*batch
		for j := 0; j < batch; j++ {
			b.due = append(b.due, due)
		}
		sendErr = b.conns[0].send(pending{kind: kindPublish, first: first, n: batch},
			b.codec.payload(b.in, first, batch, batch > 1))
	})
	if sendErr != nil {
		return nil, fmt.Errorf("publish: %w", sendErr)
	}
	p.last = b.clk.now()
	p.end = p.first + frames*batch
	b.seq = p.end
	p.drained = b.settle(p, frames)
	p.cpu, p.genCPU, p.wall = b.daemonCPU()-cpu0, selfCPU()-gen0, time.Since(wall0)
	return p, nil
}

// saturate publishes closed-loop: the next frame goes out as soon as no
// more than the workload's inflight frames are outstanding, a frame
// counting as outstanding until it is acknowledged and each node's
// connection has read the deliveries the reference predicts for it and
// every earlier frame. It stops after frames frames or after dur,
// whichever comes first. Each event is due when its frame is sent, so
// the phase's latencies are those of a queue held at the inflight depth.
func (b *bench) saturate(name string, frames int, dur time.Duration) (*phase, error) {
	batch, inflight, nodes := b.sp.batch, b.sp.inflight, len(b.daemons)
	b.quiesce()
	dels, acks := b.rec.snapshot()
	p := &phase{name: name, first: b.seq, delBase: len(dels), ackBase: len(acks)}
	acked0 := b.rec.published.Load()
	// need[i][n] is the steady deliveries node n's connection must read,
	// counted from the phase's start, for frames 0..i to be complete.
	var need [][]int64
	cum := make([]int64, nodes)
	for n := range cum {
		cum[n] = b.conns[n].steady.Load()
	}
	cpu0, gen0, wall0 := b.daemonCPU(), selfCPU(), time.Now()
	p.start = b.clk.now()
	stop := p.start + int64(dur)
	for i := 0; i < frames && b.clk.now() < stop; i++ {
		if j := i - inflight; j >= 0 {
			b.awaitFrame(need[j], acked0+int64(j)+1)
		}
		now := b.clk.now()
		first := p.first + i*batch
		for e := 0; e < batch; e++ {
			b.due = append(b.due, now)
			for _, w := range b.ref.want[b.in.template(first+e)] {
				cum[b.home[w.sub]]++
			}
		}
		need = append(need, append([]int64(nil), cum...))
		p.sends = append(p.sends, now)
		if err := b.conns[0].send(pending{kind: kindPublish, first: first, n: batch},
			b.codec.payload(b.in, first, batch, batch > 1)); err != nil {
			return nil, fmt.Errorf("publish: %w", err)
		}
	}
	p.last = b.clk.now()
	p.end = p.first + len(need)*batch
	p.rate = p.achieved(batch)
	b.seq = p.end
	p.drained = b.settle(p, len(need))
	p.cpu, p.genCPU, p.wall = b.daemonCPU()-cpu0, selfCPU()-gen0, time.Since(wall0)
	return p, nil
}

// awaitFrame waits until each node's connection has read the given
// steady deliveries and the recorder has counted the given publish
// acknowledgements, or until the workload's limit has passed: a lost
// delivery must not stall the loop (the phase's verdict counts it).
func (b *bench) awaitFrame(need []int64, acked int64) {
	done := func() bool {
		for n, v := range need {
			if b.conns[n].steady.Load() < v {
				return false
			}
		}
		return b.rec.published.Load() >= acked
	}
	var deadline <-chan time.Time
	for !done() {
		if deadline == nil {
			deadline = time.After(b.sp.limit)
		}
		select {
		case <-b.rec.signal:
		case <-deadline:
			return
		}
	}
}

// rates splits a closed-loop phase into n windows of equal frame count
// and returns each window's rate in events per second.
func (p *phase) rates(n, batch int) []float64 {
	last := len(p.sends) - 1
	var out []float64
	for w := 0; w < n; w++ {
		a, z := last*w/n, last*(w+1)/n
		if z > a {
			out = append(out, rate(p.sends, a, z, batch))
		}
	}
	return out
}

// rate is the events per second sent between frame a's send and frame
// z's.
func rate(sends []int64, a, z, batch int) float64 {
	if z <= a {
		return 0
	}
	return float64((z-a)*batch) / (float64(sends[z]-sends[a]) / 1e9)
}

// settle waits until every publish of the phase is acknowledged and its
// predicted deliveries have arrived, or until the latency limit has
// passed since the last send. It reports whether all acks came in time.
func (b *bench) settle(p *phase, frames int) bool {
	expect := 0
	for s := p.first; s < p.end; s++ {
		expect += len(b.ref.want[b.in.template(s)])
	}
	deadline := p.last + int64(b.sp.limit) + int64(300*time.Millisecond)
	for {
		dels, acks := b.rec.snapshot()
		nacks, ndels := 0, 0
		for _, a := range acks[p.ackBase:] {
			if a.kind == kindPublish && a.first >= p.first && a.first < p.end {
				nacks++
			}
		}
		for _, d := range dels[p.delBase:] {
			if d.sub >= 0 && int(d.seq) >= p.first && int(d.seq) < p.end {
				ndels++
			}
		}
		if nacks == frames && ndels >= expect {
			// Let stragglers (duplicates, churn) arrive before judging.
			time.Sleep(20 * time.Millisecond)
			return true
		}
		if b.clk.now() > deadline {
			return nacks == frames
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quiesce waits, for at most five seconds, until every request on the
// connections is answered and no delivery has arrived for 50 ms, so a
// phase does not inherit the backlog of the one before.
func (b *bench) quiesce() {
	deadline := time.Now().Add(5 * time.Second)
	last := -1
	for time.Now().Before(deadline) {
		dels, _ := b.rec.snapshot()
		open := 0
		for _, c := range b.conns {
			if c != nil {
				c.pmu.Lock()
				open += len(c.queue)
				c.pmu.Unlock()
			}
		}
		if open == 0 && len(dels) == last {
			return
		}
		last = len(dels)
		time.Sleep(50 * time.Millisecond)
	}
}

// outcome is a phase judged against the reference.
type outcome struct {
	tally
	e2e, ingest, egress []float64 // ms, ascending
	acks                []float64 // publish acknowledgement latency, ms
	lagP99              float64   // ms
	growth              float64   // delivery p50 of the last third minus the first, ms
	deliveries          int
	faults              []string
}

func (b *bench) judge(p *phase) outcome {
	dels, acks := b.rec.snapshot()
	var o outcome
	o.published = p.end - p.first
	var keys []uint64
	churnSeen := make(map[[2]int32]bool)
	for _, d := range dels[p.delBase:] {
		s := int(d.seq)
		if s < p.first || s >= p.end {
			continue
		}
		tmpl := b.in.template(s)
		if d.sub < 0 {
			k := [2]int32{d.sub, d.seq}
			if churnSeen[k] {
				o.duplicated++
				continue
			}
			churnSeen[k] = true
			if !b.ref.churnAllowed(int(-d.sub-1), tmpl, d.score) {
				o.unexpected++
				o.faults = append(o.faults, fmt.Sprintf("churn subscription c%d got e%d (score %.6f)", -d.sub-1, d.seq, d.score))
			}
			continue
		}
		o.deliveries++
		keys = append(keys, uint64(d.sub)<<32|uint64(d.seq))
		due := b.due[s]
		o.e2e = append(o.e2e, float64(d.recv-due)/1e6)
		o.ingest = append(o.ingest, float64(d.at-due)/1e6)
		o.egress = append(o.egress, float64(d.recv-d.at)/1e6)
		if ref, ok := b.ref.lookup(d.sub, tmpl); ok && !sameScore(ref, d.score) {
			o.wrongScore++
			o.faults = append(o.faults, fmt.Sprintf("s%d e%d scored %.17g, reference %.17g", d.sub, d.seq, d.score, ref))
		}
	}
	o.growth = growth(dels[p.delBase:], b.due, p.first, p.end)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	matched := 0
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			o.duplicated++
			continue
		}
		sub, s := int32(k>>32), int(uint32(k))
		if _, ok := b.ref.lookup(sub, b.in.template(s)); ok {
			matched++
		} else {
			o.unexpected++
			o.faults = append(o.faults, fmt.Sprintf("s%d got e%d, which the reference does not deliver", sub, s))
		}
	}
	for s := p.first; s < p.end; s++ {
		o.expected += len(b.ref.want[b.in.template(s)])
	}
	o.lost = o.expected - matched
	for _, a := range acks[p.ackBase:] {
		if a.kind != kindPublish || a.first < p.first || a.first >= p.end {
			continue
		}
		o.acks = append(o.acks, float64(a.recv-a.sent)/1e6)
		if a.status != 'o' {
			o.refused += a.n
		}
	}
	if !p.drained {
		// Unacknowledged publishes count as refused: the daemon did not
		// admit them within the latency limit.
		o.refused += o.published - len(o.acks)*b.sp.batch
	}
	sorted(o.e2e)
	sorted(o.ingest)
	sorted(o.egress)
	sorted(o.acks)
	lags := make([]float64, len(p.lags))
	for i, l := range p.lags {
		lags[i] = float64(l) / 1e6
	}
	if v, _, ok := tail(sorted(lags), 0.99); ok {
		o.lagP99 = v
	} else if len(lags) > 0 {
		o.lagP99 = lags[len(lags)-1]
	}
	if len(o.faults) > 5 {
		o.faults = append(o.faults[:5], fmt.Sprintf("... %d more", len(o.faults)-5))
	}
	return o
}

// generatorValid reports whether the generator kept its schedule: its
// sends left no more than genLagLimit late at the 99th percentile.
func (o *outcome) generatorValid() bool { return o.lagP99 <= float64(genLagLimit)/1e6 }

// growth is how much later deliveries of the phase's last third of
// events arrived than those of its first third (p50 against p50): a
// backlog that builds over the phase shows here before it breaks the
// latency limit.
func growth(dels []delRec, due []int64, first, end int) float64 {
	third := (end - first) / 3
	var early, late []float64
	for _, d := range dels {
		s := int(d.seq)
		if d.sub < 0 || s < first || s >= end {
			continue
		}
		switch {
		case s < first+third:
			early = append(early, float64(d.recv-due[s])/1e6)
		case s >= end-third:
			late = append(late, float64(d.recv-due[s])/1e6)
		}
	}
	return median(sorted(late)) - median(sorted(early))
}

// churnLoop subscribes and unsubscribes churn subscriptions on the
// second connection at a fixed rate until stop closes, keeping a few
// registered at any time. With two nodes that connection is the second
// node's, and only subscriptions it owns are used.
func (b *bench) churnLoop(stop <-chan struct{}, done chan<- error) {
	node := len(b.daemons) - 1
	var pool []int
	for k, s := range b.in.churn {
		if b.top.home(s, node) == node {
			pool = append(pool, k)
		}
	}
	if len(pool) == 0 {
		done <- fmt.Errorf("no churn subscription is homed at node %d", node)
		return
	}
	const live = 4
	var open []int
	// Arrivals are Poisson: a fixed period would keep hitting the same
	// phase of the publish schedule, and which phase would decide the
	// figure.
	rng := rand.New(rand.NewSource(b.seed))
	due := b.clk.now()
	for i := 0; ; i++ {
		due += int64(rng.ExpFloat64() * 1e9 / b.sp.churnHz)
		select {
		case <-stop:
			done <- nil
			return
		case <-time.After(time.Duration(due - b.clk.now())):
		}
		var err error
		if len(open) >= live && i%2 == 1 {
			k := open[0]
			open = open[1:]
			err = b.conns[1].send(pending{kind: kindChurnUnsub, first: k}, unsubscribePayload("c"+strconv.Itoa(k)))
		} else {
			// Churn IDs never repeat; k modulo the pool picks the body.
			k := pool[b.churn%len(pool)] + len(b.in.churn)*(b.churn/len(pool))
			b.churn++
			open = append(open, k)
			err = b.conns[1].send(pending{kind: kindChurnSub, first: k},
				subscribePayload(b.in.churn[k%len(b.in.churn)], "c"+strconv.Itoa(k)))
		}
		if err != nil {
			done <- err
			return
		}
	}
}

func (b *bench) churnAcks() []ackRec {
	_, acks := b.rec.snapshot()
	var out []ackRec
	for _, a := range acks {
		if a.kind == kindChurnSub || a.kind == kindChurnUnsub {
			out = append(out, a)
		}
	}
	return out
}
