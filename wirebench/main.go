// Command wirebench is thematicep's benchmark: it drives live thematicd
// processes over loopback TCP on an open-loop schedule, times every
// delivery from when its event was due, checks the delivered set against
// an in-process reference, and prints one JSON result line. With
// -trace 1 it instead reports per-layer metrics: the server-side split
// of the same wire run plus each layer's public Go function timed from
// outside on the same inputs.
//
// Run it through run.sh, which builds thematicd and this generator:
//
//	bash wirebench/run.sh --workload fanout-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"thematicep/internal/matcher"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: match-wide, fanout-single or hop-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "checkout root holding .bench_build/thematicd")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "thematicd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("thematicd binary: %w", err)
	}
	work := filepath.Join(build, "work-"+sp.name)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in := generate(sp, o.seed)
	codec, err := newEventCodec(in.events)
	if err != nil {
		return nil, err
	}
	space := buildSpace()
	m := matcher.New(space)
	b := &bench{sp: sp, in: in, bin: bin, work: work, clk: newWallClock(), codec: codec, seed: o.seed}
	defer b.teardown()

	seconds := time.Duration(o.seconds) * time.Second
	stamp := hostStamp(root, o, sp)
	if o.trace {
		return traceRun(b, m, space, seconds, stamp)
	}
	return e2eRun(b, m, seconds, stamp)
}

// setupRepeats is how many times an end-to-end run sets the daemons up;
// setup_s is their median.
const setupRepeats = 3

func e2eRun(b *bench, m *matcher.Matcher, seconds time.Duration, stamp map[string]any) (*result, error) {
	sp := b.sp
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < setupRepeats-1 {
			b.teardown()
		}
	}
	t0 := time.Now()
	b.ref = newReference(m, sp, b.in, b.top, b.home)
	fmt.Fprintf(os.Stderr, "reference: %d templates, %.2f deliveries/event, computed in %s\n",
		len(b.in.events), b.ref.perEvent(), time.Since(t0).Round(time.Millisecond))

	ms, err := b.measure(seconds, true)
	if err != nil {
		return nil, err
	}
	b.teardown()
	correct, all := b.verdict(ms.phases)
	refO := b.judge(ms.ref)
	if !refO.generatorValid() {
		fmt.Fprintf(os.Stderr, "run invalid: generator send lag p99 %.2f ms at the reference rate exceeds %s; its figures include the generator's lateness\n",
			refO.lagP99, genLagLimit)
	}

	// Latency figures are medians over the quieter half of the
	// reference phase's windows, ranked by the hypervisor's steal share:
	// on a shared host, CPU taken by other guests otherwise sets a run's
	// figures more than the code does.
	var p50s, p99s, acks, steals []float64
	for _, w := range b.quietWindows(ms) {
		o := b.judge(w.phase)
		p99, _, _ := tail(o.e2e, 0.99)
		p50s, p99s, acks = append(p50s, median(o.e2e)), append(p99s, p99), append(acks, median(o.acks))
		steals = append(steals, w.steal)
	}
	rates := sorted(ms.sat.rates(satWindows, sp.batch))
	metrics := map[string]metric{
		"setup_s":        {median(sorted(setups)), "s"},
		"sustained_eps":  {median(rates), "ev/s"},
		"deliver_p50_ms": {median(sorted(p50s)), "ms"},
		"ack_p50_ms":     {median(sorted(acks)), "ms"},
		"cpu_ms_per_kev": {float64(ms.ref.cpu.Microseconds()) / 1e3 / (float64(ms.ref.end-ms.ref.first) / 1e3), "ms"},
		"rss_mb":         {float64(ms.rss) / (1 << 20), "MB"},
	}
	p99, q, _ := tail(refO.e2e, 0.99)
	satO := b.judge(ms.sat)
	satP99, satQ, _ := tail(satO.e2e, 0.99)
	stamp["saturation_window_rates"] = rates
	stamp["saturation_deliver_ms"] = map[string]any{"p50": median(satO.e2e), "p99": satP99, "quantile": satQ, "samples": len(satO.e2e)}
	stamp["saturation_fail"] = map[string]int{"lost": satO.lost, "duplicated": satO.duplicated,
		"unexpected": satO.unexpected, "refused": satO.refused}
	stamp["deliver_p99_whole_phase"] = map[string]any{"ms": p99, "quantile": q, "samples": len(refO.e2e)}
	stamp["deliver_p99_windows_ms"] = p99s
	stamp["churn_samples"] = len(ms.churn[0]) + len(ms.churn[1])
	stamp["churn_subscribe_p50_ms"] = median(ms.churn[0])
	stamp["churn_unsubscribe_p50_ms"] = median(ms.churn[1])
	stamp["fail_ratio"] = refO.failRatio()
	stamp["setup_s_each"] = setups
	stamp["deliveries_per_event"] = b.ref.perEvent()
	stamp["redirected_share"] = b.redirected
	stamp["reference_gc_cycles"] = ms.gc
	stamp["reference_steal_share"] = ms.steal
	stamp["quiet_windows_steal_share"] = steals
	stamp["reference_daemon_drops"] = ms.drops
	stamp["saturation_daemon_drops"] = ms.satDrops
	stamp["generator_valid"] = refO.generatorValid()
	stamp["generator_lag_p99_ms"] = refO.lagP99
	printStamp(stamp)
	printMetrics(metrics)
	fmt.Fprintf(os.Stderr, "%-40s %14.4f ms (unresolved: unbounded, see the traced run; whole phase p%.4g %.4f ms over %d deliveries)\n",
		"deliver_p99_ms", median(sorted(p99s)), 100*q, p99, len(refO.e2e))
	fmt.Fprintf(os.Stderr, "%-40s %14.4f ms (unresolved: unbounded, see the traced run)\n", "churn_ack_p50_ms", ms.churnAck())
	fmt.Fprintf(os.Stderr, "fail_ratio %.6f ratio (reference phase: %d published, %d expected, %d refused, %d lost, %d duplicated, %d unexpected); all phases: %d duplicated, %d unexpected, %d wrong scores\n",
		refO.failRatio(), refO.published, refO.expected, refO.refused, refO.lost, refO.duplicated, refO.unexpected,
		all.duplicated, all.unexpected, all.wrongScore)
	fmt.Fprintf(os.Stderr, "saturation phase: %d published, %d expected, %d refused, %d lost (daemon drop counters: %v)\n",
		satO.published, satO.expected, satO.refused, satO.lost, ms.satDrops)
	return &result{Correct: correct, Attempted: refO.published + refO.expected, Failed: refO.failed(), Metrics: metrics}, nil
}

// satWindows is how many windows the saturation phase's rate is taken
// over.
const satWindows = 20

// refWindows is how many windows the reference phase's latencies are
// taken over.
const refWindows = 10

// verdict judges every phase, prints one line each, and reports whether
// every delivery was one the reference predicts, with the right score.
func (b *bench) verdict(phases []*phase) (bool, tally) {
	var all tally
	var faults []string
	for _, p := range phases {
		o := b.judge(p)
		all.add(o.tally)
		faults = append(faults, o.faults...)
		v, q, _ := tail(o.e2e, 0.99)
		fmt.Fprintf(os.Stderr, "phase %-9s offered %7.1f ev/s sent %7.1f  deliveries %7d  p50 %7.2f ms  p%.4g %7.2f ms  growth %6.2f ms  lag p99 %5.2f ms  fail %d\n",
			p.name, p.rate, p.achieved(b.sp.batch), o.deliveries, median(o.e2e), 100*q, v, o.growth, o.lagP99, o.failed())
	}
	b.rec.mu.Lock()
	faults = append(faults, b.rec.faults...)
	b.rec.mu.Unlock()
	for _, f := range faults {
		fmt.Fprintln(os.Stderr, "fault:", f)
	}
	return all.wrongScore == 0 && all.unexpected == 0 && len(b.rec.faults) == 0, all
}

// measurement is what one run's publishing produced.
type measurement struct {
	ref    *phase
	sat    *phase   // closed-loop saturation phase, nil in a traced run
	phases []*phase // every phase in order, warm-up first
	// churn holds subscribe and unsubscribe acknowledgement latencies, ms.
	churn [2][]float64
	rss   int64 // daemons' summed peak RSS after the reference phase
	gc    int   // daemons' GC cycles during the reference phase
	// steal is the share of host CPU time the hypervisor gave to other
	// guests during the reference phase, from /proc/stat.
	steal float64
	// drops and satDrops are the daemons' own loss counters over the
	// reference and the saturation phase.
	drops, satDrops map[string]float64
	// samples are host CPU readings through the reference phase.
	samples []stealSample
}

// churnAck is the mean of the subscribe and the unsubscribe
// acknowledgement medians: a subscribe takes about half as long again,
// and one median over the mixture jumps between the two.
func (ms *measurement) churnAck() float64 {
	return (median(sorted(ms.churn[0])) + median(sorted(ms.churn[1]))) / 2
}

// measure runs the warm-up, the reference phase with churn beside it,
// and (when sat is set) the closed-loop saturation phase, each but the
// warm-up after a full GC of the daemons.
func (b *bench) measure(seconds time.Duration, sat bool) (*measurement, error) {
	sp := b.sp
	ms := &measurement{}
	// The warm-up publishes every template once, so the semantic caches
	// hold every term and projection before anything is timed.
	warm, err := b.saturate("warmup", (len(b.in.events)+sp.batch-1)/sp.batch, time.Minute)
	if err != nil {
		return nil, err
	}
	ms.phases = append(ms.phases, warm)
	churnBase := len(b.churnAcks())
	if b.conns[1] == nil {
		if b.conns[1], err = dial(b.daemons[0].addr, b.rec); err != nil {
			return nil, err
		}
	}
	b.quiesce()
	if err := b.collectGarbage(); err != nil {
		return nil, err
	}
	gc0, steal0, drops0 := b.gcCycles(), hostCPU(), b.drops()
	stop, done := make(chan struct{}), make(chan error, 1)
	samples := make(chan []stealSample, 1)
	go b.churnLoop(stop, done)
	go b.sampleSteal(stop, samples)
	refDur := seconds / 2
	if !sat {
		refDur = seconds
	}
	ms.ref, err = b.publish("reference", sp.refRate, refDur)
	close(stop)
	if cerr := <-done; err == nil {
		err = cerr
	}
	ms.samples = <-samples
	if err != nil {
		return nil, err
	}
	ms.phases = append(ms.phases, ms.ref)
	ms.gc = b.gcCycles() - gc0
	ms.steal = hostCPU().stealShare(steal0)
	ms.drops = b.drops()
	for k, v := range drops0 {
		ms.drops[k] -= v
	}
	for _, a := range b.churnAcks()[churnBase:] {
		if a.status != 'o' {
			return nil, fmt.Errorf("churn request for c%d answered %c", a.first, a.status)
		}
		k := 0
		if a.kind == kindChurnUnsub {
			k = 1
		}
		ms.churn[k] = append(ms.churn[k], float64(a.recv-a.sent)/1e6)
	}
	// The saturation phase grows the heap; peak RSS is the reference
	// workload's.
	ms.rss = b.peakRSS()
	if !sat {
		return ms, nil
	}
	if err := b.collectGarbage(); err != nil {
		return nil, err
	}
	drops0 = b.drops()
	ms.sat, err = b.saturate("saturate", math.MaxInt, seconds-refDur)
	if err != nil {
		return nil, err
	}
	ms.satDrops = b.drops()
	for k, v := range drops0 {
		ms.satDrops[k] -= v
	}
	ms.phases = append(ms.phases, ms.sat)
	return ms, nil
}

// hostStamp records what the numbers were measured on.
func hostStamp(root string, o options, sp *spec) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceID(root),
		"workload":   sp.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"ref_rate":   sp.refRate,
		"inflight":   sp.inflight,
		"batch":      sp.batch,
		"churn_hz":   sp.churnHz,
		"fsync":      sp.fsync,
		"threshold":  sp.threshold,
	}
}

func printStamp(stamp map[string]any) {
	b, err := json.Marshal(stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "host stamp:", err)
		return
	}
	fmt.Println("host " + string(b))
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
