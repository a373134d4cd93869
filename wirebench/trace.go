package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
)

// traceRun measures the server-side split on one wire run at the
// reference rate, then times each layer in-process on the same inputs.
func traceRun(b *bench, m *matcher.Matcher, space *semantics.Space, seconds time.Duration, stamp map[string]any) (*result, error) {
	sp := b.sp
	if _, err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.ref = newReference(m, sp, b.in, b.top, b.home)
	ms, err := b.measure(seconds/2, false)
	if err != nil {
		return nil, err
	}
	correct, _ := b.verdict(ms.phases)
	ref := ms.ref
	o := b.judge(ref)
	b.teardown()

	lm, err := measureLayers(b, m, space, seconds/2)
	if err != nil {
		return nil, err
	}
	pct := func(xs []float64, q float64) float64 {
		v, _, _ := tail(xs, q)
		return v
	}
	// Unresolved as an end-to-end metric: across seeds its quartiles
	// spread wider than any bound the benchmark may set, so it is
	// reported here, unbounded, over the same windows as the e2e run.
	var p99s []float64
	for _, w := range b.quietWindows(ms) {
		v, _, _ := tail(b.judge(w.phase).e2e, 0.99)
		p99s = append(p99s, v)
	}
	lm["deliver_p99_ms"] = metric{median(sorted(p99s)), "ms"}
	// Unresolved too: registration latency tracks the hypervisor's steal
	// share run by run, on the single-node workloads most.
	lm["churn_ack_p50_ms"] = metric{ms.churnAck(), "ms"}
	lm["server.ingest_ms.p50"] = metric{median(o.ingest), "ms"}
	lm["server.ingest_ms.p99"] = metric{pct(o.ingest, 0.99), "ms"}
	lm["server.egress_ms.p50"] = metric{median(o.egress), "ms"}
	lm["server.egress_ms.p99"] = metric{pct(o.egress, 0.99), "ms"}
	lm["gen.lag_p99_ms"] = metric{o.lagP99, "ms"}
	lm["gen.cpu_share"] = metric{ref.genCPU.Seconds() / (ref.wall.Seconds() * float64(runtime.NumCPU())), "ratio"}

	// The layers a delivery passes through on this workload's path, per
	// delivery: the whole publish frame is decoded and published before
	// any of its deliveries is enqueued.
	v := func(name string) float64 { return lm[name].Value }
	bn := float64(sp.batch)
	path := []struct {
		name string
		us   float64
	}{
		{"wire.decode (frame)", bn * v("wire.decode_us.publishb_per_event")},
		{"broker.publish (frame)", bn * v("broker.publish_us_per_event.batched")},
		{"broker.queue_wait", v("broker.queue_wait_us")},
		{"wire.encode (delivery)", v("wire.encode_us.delivery")},
	}
	if sp.batch == 1 {
		path[0].us, path[1].us = v("wire.decode_us.publish"), v("broker.publish_us_per_event.serial")
	}
	sum := 0.0
	for _, p := range path {
		sum += p.us
	}
	e2eMean := mean(o.e2e) * 1e3
	lm["unaccounted_us"] = metric{e2eMean - sum, "us"}

	printStamp(stamp)
	printMetrics(lm)
	fmt.Fprintf(os.Stderr, "\nlayer sum along the delivery path (%d deliveries, e2e mean %.1f us):\n", len(o.e2e), e2eMean)
	for _, p := range path {
		fmt.Fprintf(os.Stderr, "  %-26s %10.1f us\n", p.name, p.us)
	}
	fmt.Fprintf(os.Stderr, "  %-26s %10.1f us\n  %-26s %10.1f us\n", "sum", sum, "unaccounted", e2eMean-sum)
	if sp.nodes > 1 {
		fmt.Fprintf(os.Stderr, "  (the forward hop, cluster.hop_ms p50 %.2f ms, is inside the remainder for forwarded matches)\n", v("cluster.hop_ms.p50"))
	}
	shapeCheck(b, lm)
	return &result{Correct: correct, Attempted: o.published + o.expected, Failed: o.failed(), Metrics: lm}, nil
}

// shapeCheck prints whether the workload stresses the layers it was
// chosen for. The codec share of fanout-single is compared with the one
// the last match-wide traced run in this checkout recorded.
func shapeCheck(b *bench, lm layers) {
	v := func(name string) float64 { return lm[name].Value }
	perEvent := b.ref.perEvent()
	codec := v("wire.decode_us.publishb_per_event") + perEvent*v("wire.encode_us.delivery")
	if b.sp.batch == 1 {
		codec = v("wire.decode_us.publish") + perEvent*v("wire.encode_us.delivery")
	}
	match := v("matcher.prepare_us") + v("subindex.enumerate_us") + v("matcher.score_us_per_event")
	share := codec / (codec + match + max(v("broker.self_us_per_event"), 0))
	file := filepath.Join(filepath.Dir(b.work), "shape-"+b.sp.name+".json")
	if data, err := json.Marshal(map[string]float64{"codec_share": share}); err == nil {
		os.WriteFile(file, data, 0o644)
	}
	fmt.Fprintf(os.Stderr, "\nshape: %.1f deliveries/event, %.1f candidates/event, codec %.1f us/event vs index+matcher %.1f us/event (codec share %.3f)\n",
		perEvent, v("subindex.candidates_per_event"), codec, match, share)
	var ok bool
	var why string
	switch b.sp.name {
	case "match-wide":
		ok, why = match > codec, "subindex+matcher time > wire codec time"
	case "fanout-single":
		why = "codec share above match-wide's"
		var mw map[string]float64
		data, err := os.ReadFile(filepath.Join(filepath.Dir(b.work), "shape-match-wide.json"))
		if err != nil || json.Unmarshal(data, &mw) != nil {
			fmt.Fprintf(os.Stderr, "shape check %s: %s — no match-wide traced run in this checkout to compare with\n", b.sp.name, why)
			return
		}
		ok = share > mw["codec_share"]
		why = fmt.Sprintf("%s (%.3f)", why, mw["codec_share"])
	case "hop-churn":
		ok, why = v("cluster.forwarded") > 0 && v("wal.records") > 0, "cluster.forwarded > 0 and wal.records > 0"
	}
	verdict := "FAIL"
	if ok {
		verdict = "pass"
	}
	fmt.Fprintf(os.Stderr, "shape check %s: %s: %s\n", b.sp.name, why, verdict)
}

// sourceID identifies the measured code: the git commit when the
// checkout is a repository, and always a digest of the Go sources.
func sourceID(root string) string {
	h := sha256.New()
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return nil
			}
			data, err := os.ReadFile(p)
			if err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
			return nil
		})
	}
	id := "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		id = strings.TrimSpace(string(out)) + " " + id
	}
	return id
}
