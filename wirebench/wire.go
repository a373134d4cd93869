package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// Request kinds waiting for their FIFO acknowledgement on a connection.
const (
	kindPublish = iota
	kindSubscribe
	kindChurnSub
	kindChurnUnsub
)

// pending is one request frame awaiting its ok/error/redirect. The
// server answers requests on a connection strictly in order, so the
// head of the FIFO is always the request an acknowledgement belongs to.
type pending struct {
	kind  int
	first int   // first event seq, or subscription index
	n     int   // events carried
	sent  int64 // clock reading just before the write
}

// ackRec is one acknowledged request.
type ackRec struct {
	pending
	recv   int64
	status byte   // 'o' ok, 'e' error, 'r' redirect
	addr   string // redirect target
}

// delRec is one delivery frame as read off the wire. sub < 0 marks a
// churn subscription c<-sub-1>.
type delRec struct {
	sub   int32
	seq   int32
	recv  int64 // clock reading when the frame was read
	at    int64 // the frame's At stamp on the same clock
	score float64
}

// recorder collects what every connection's reader saw.
type recorder struct {
	clk *wallClock

	mu     sync.Mutex
	dels   []delRec
	acks   []ackRec
	faults []string // frames the generator could not parse

	// signal is nudged (never blocking) after every acknowledgement and
	// every delivery to a steady subscription.
	signal chan struct{}
	// published counts acknowledged publish frames, for the closed loop
	// to wait on.
	published atomic.Int64
}

func (r *recorder) nudge() {
	select {
	case r.signal <- struct{}{}:
	default:
	}
}

func (r *recorder) snapshot() ([]delRec, []ackRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dels, r.acks
}

// wconn is one generator connection to a daemon. Writers share it under
// wmu; one reader goroutine parses every frame the daemon sends back.
type wconn struct {
	conn net.Conn
	rec  *recorder

	wmu   sync.Mutex
	pmu   sync.Mutex
	queue []pending
	// steady counts deliveries to steady subscriptions read here.
	steady atomic.Int64

	done chan struct{}
	err  error
}

func dial(addr string, rec *recorder) (*wconn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	w := &wconn{conn: c, rec: rec, done: make(chan struct{})}
	go w.readLoop()
	return w, nil
}

// send writes one length-prefixed frame and queues its acknowledgement,
// stamped with the clock reading taken just before the write.
func (w *wconn) send(p pending, payload []byte) error {
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	p.sent = w.rec.clk.now()
	w.pmu.Lock()
	w.queue = append(w.queue, p)
	w.pmu.Unlock()
	_, err := w.conn.Write(frame)
	return err
}

func (w *wconn) close() {
	w.conn.Close()
	<-w.done
}

func (w *wconn) pop() (pending, bool) {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if len(w.queue) == 0 {
		return pending{}, false
	}
	p := w.queue[0]
	w.queue = w.queue[1:]
	return p, true
}

func (w *wconn) readLoop() {
	defer close(w.done)
	br := bufio.NewReaderSize(w.conn, 1<<18)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			w.err = err
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > broker.MaxFrameSize {
			w.err = fmt.Errorf("frame of %d bytes", n)
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			w.err = err
			return
		}
		now := w.rec.clk.now()
		if d, ok, err := parseDelivery(buf, w.rec.clk); ok {
			w.rec.mu.Lock()
			if err != nil {
				w.rec.faults = append(w.rec.faults, err.Error())
			} else {
				d.recv = now
				w.rec.dels = append(w.rec.dels, d)
			}
			w.rec.mu.Unlock()
			if err == nil && d.sub >= 0 {
				w.steady.Add(1)
				w.rec.nudge()
			}
			continue
		}
		a := ackRec{recv: now}
		switch {
		case bytes.HasPrefix(buf, []byte(`{"type":"ok"`)):
			a.status = 'o'
		case bytes.HasPrefix(buf, []byte(`{"type":"error"`)):
			a.status = 'e'
		case bytes.HasPrefix(buf, []byte(`{"type":"redirect"`)):
			a.status = 'r'
			var f struct{ Addr string }
			if json.Unmarshal(buf, &f) == nil {
				a.addr = f.Addr
			}
		default:
			w.rec.mu.Lock()
			w.rec.faults = append(w.rec.faults, "unexpected frame "+string(buf[:min(len(buf), 80)]))
			w.rec.mu.Unlock()
			continue
		}
		p, ok := w.pop()
		if !ok {
			w.rec.mu.Lock()
			w.rec.faults = append(w.rec.faults, "acknowledgement without a request")
			w.rec.mu.Unlock()
			continue
		}
		a.pending = p
		w.rec.mu.Lock()
		w.rec.acks = append(w.rec.acks, a)
		w.rec.mu.Unlock()
		if p.kind == kindPublish {
			w.rec.published.Add(1)
		}
		w.rec.nudge()
	}
}

// Delivery frames are parsed by field search rather than json.Unmarshal:
// the generator reads tens of thousands of them a second beside the
// daemon on the same cores, and needs only four fields. The encoder
// writes Frame fields in declaration order, so the event (with its ID
// first) precedes subscriptionId, score and at.
var (
	delPrefix = []byte(`{"type":"delivery","event":{"id":"`)
	subKey    = []byte(`"subscriptionId":"`)
	scoreKey  = []byte(`"score":`)
	atKey     = []byte(`"at":"`)
	replayKey = []byte(`"replay":true`)
)

var errBadDelivery = errors.New("malformed delivery frame")

// parseDelivery reports ok=false for frames that are not deliveries.
func parseDelivery(b []byte, clk *wallClock) (delRec, bool, error) {
	if !bytes.HasPrefix(b, delPrefix) {
		return delRec{}, false, nil
	}
	var d delRec
	rest := b[len(delPrefix):]
	seq, ok := idNumber(rest, 'e')
	if !ok {
		return d, true, fmt.Errorf("%w: event id in %.80s", errBadDelivery, b)
	}
	d.seq = int32(seq)
	i := bytes.LastIndex(b, subKey)
	if i < 0 {
		return d, true, fmt.Errorf("%w: no subscriptionId", errBadDelivery)
	}
	tail := b[i+len(subKey):]
	switch {
	case len(tail) > 0 && tail[0] == 's':
		n, ok := idNumber(tail, 's')
		if !ok {
			return d, true, fmt.Errorf("%w: subscription id", errBadDelivery)
		}
		d.sub = int32(n)
	case len(tail) > 0 && tail[0] == 'c':
		n, ok := idNumber(tail, 'c')
		if !ok {
			return d, true, fmt.Errorf("%w: subscription id", errBadDelivery)
		}
		d.sub = int32(-n - 1)
	default:
		return d, true, fmt.Errorf("%w: foreign subscription id %.20s", errBadDelivery, tail)
	}
	if bytes.Contains(tail, replayKey) {
		return d, true, fmt.Errorf("%w: replayed delivery", errBadDelivery)
	}
	j := bytes.Index(tail, scoreKey)
	if j < 0 {
		return d, true, fmt.Errorf("%w: no score", errBadDelivery)
	}
	num := tail[j+len(scoreKey):]
	end := bytes.IndexAny(num, ",}")
	if end < 0 {
		return d, true, fmt.Errorf("%w: score", errBadDelivery)
	}
	score, err := strconv.ParseFloat(string(num[:end]), 64)
	if err != nil {
		return d, true, fmt.Errorf("%w: score: %v", errBadDelivery, err)
	}
	d.score = score
	k := bytes.Index(tail, atKey)
	if k < 0 {
		return d, true, fmt.Errorf("%w: no at", errBadDelivery)
	}
	ts := tail[k+len(atKey):]
	q := bytes.IndexByte(ts, '"')
	if q < 0 {
		return d, true, fmt.Errorf("%w: at", errBadDelivery)
	}
	at, err := time.Parse(time.RFC3339Nano, string(ts[:q]))
	if err != nil {
		return d, true, fmt.Errorf("%w: at: %v", errBadDelivery, err)
	}
	d.at = clk.fromWall(at)
	return d, true, nil
}

// idNumber parses `<prefix><digits>"` at the start of b.
func idNumber(b []byte, prefix byte) (int, bool) {
	if len(b) < 3 || b[0] != prefix {
		return 0, false
	}
	n := 0
	for i := 1; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			return n, i > 1
		}
		if c < '0' || c > '9' || n > 1<<30 {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return 0, false
}

// eventCodec builds publish and publishb payloads from templates
// pre-encoded once, splicing in each copy's fresh ID.
type eventCodec struct {
	bodies [][]byte // template JSON without its ID and leading '{'
}

func newEventCodec(events []*event.Event) (*eventCodec, error) {
	c := &eventCodec{}
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		if len(b) < 2 || b[0] != '{' || bytes.HasPrefix(b, []byte(`{"id"`)) {
			return nil, fmt.Errorf("template %s: unexpected encoding", b)
		}
		c.bodies = append(c.bodies, b[1:])
	}
	return c, nil
}

func (c *eventCodec) appendEvent(dst []byte, seq, tmpl int) []byte {
	dst = append(dst, `{"id":"e`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `",`...)
	return append(dst, c.bodies[tmpl]...)
}

// payload encodes events first..first+n-1 as one publish (n == 1) or
// publishb frame.
func (c *eventCodec) payload(in *inputs, first, n int, batched bool) []byte {
	var b []byte
	if !batched {
		b = append(b, `{"type":"publish","event":`...)
		b = c.appendEvent(b, first, in.template(first))
		return append(b, '}')
	}
	b = append(b, `{"type":"publishb","events":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.appendEvent(b, first+i, in.template(first+i))
	}
	return append(b, "]}"...)
}

// Frames of strings, bools and float-free structs always encode, so the
// marshal errors below cannot occur.

func subscribePayload(sub *event.Subscription, id string) []byte {
	cp := *sub
	cp.ID = id
	b, _ := json.Marshal(&broker.Frame{Type: broker.FrameSubscribe, Subscription: &cp})
	return b
}

func unsubscribePayload(id string) []byte {
	b, _ := json.Marshal(&broker.Frame{Type: broker.FrameUnsubscribe, SubscriptionID: id})
	return b
}
