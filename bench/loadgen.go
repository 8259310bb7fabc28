package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"monitorless/internal/serving"
)

// done is the record of one request the generator sent. Times are
// offsets from the run's clock origin.
type done struct {
	kind    opKind
	due     time.Duration // open loop only; equals start in a closed loop
	start   time.Duration
	end     time.Duration
	samples int  // samples the server acknowledged
	ok      bool // 2xx, full body read, right sample count, within maxLatency
	// idle marks an open-loop request whose connection was free before it
	// was due: start − due is then the generator's own timer error. When
	// both connections were still busy, the wait is the server's backlog,
	// which latency from the due time already charges to the server.
	idle bool
}

// conn is one generator connection: exactly one persistent TCP
// connection to the server, speaking HTTP/1.1 directly. Writing the
// header and the pre-encoded body with one writev keeps the generator's
// own cost per request at a syscall or two, which matters when a frame
// is megabytes long and the generator shares two cores with the server;
// the response is parsed by net/http.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	hdr  []byte
}

func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// requestTimeout bounds one request; far above maxLatency, it only
// keeps a wedged server from hanging the run.
const requestTimeout = 30 * time.Second

// ingestAck is the part of an ingest response the generator checks.
type ingestAck struct {
	Samples int `json:"samples"`
}

// send performs one request and reports whether it succeeded and how
// many samples the server acknowledged. Every failure mode — transport
// error, non-2xx, short or unparsable body, wrong count — is a failed
// request, never a panic or an abort: the run goes on and counts it. A
// transport error drops the connection; the next request redials.
func (c *conn) send(method, path, contentType string, body []byte, wantSamples int) (acked int, ok bool) {
	data, status, err := c.roundTrip(method, path, contentType, body)
	if err != nil {
		c.close()
		return 0, false
	}
	if status/100 != 2 {
		return 0, false
	}
	if wantSamples == 0 {
		return 0, true
	}
	var ack ingestAck
	if json.Unmarshal(data, &ack) != nil || ack.Samples != wantSamples {
		return ack.Samples, false
	}
	return ack.Samples, true
}

func (c *conn) roundTrip(method, path, contentType string, body []byte) ([]byte, int, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return nil, 0, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, 0, err
	}
	h := c.hdr[:0]
	h = append(h, method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	if contentType != "" {
		h = append(h, "\r\nContent-Type: "...)
		h = append(h, contentType...)
	}
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	bufs := net.Buffers{h, body}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return nil, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, 0, err
	}
	data, err := readAll(resp.Body, 64<<20)
	if err != nil {
		return nil, 0, err
	}
	if resp.Close {
		c.close()
	}
	return data, resp.StatusCode, nil
}

// closedRun is the outcome of a closed-loop run.
type closedRun struct {
	reqs []done
	// sent[b] counts the ticks block b's instances received since server
	// start, including the set-up tick.
	sent []int
}

// closedLoop drives a fleet workload: conn c owns blocks b with
// b%conns == c and sends its next frame only after the previous one
// completed. Tick 0 (every block once) must already have been sent;
// ticks continue from 1 until stop is set. Each instance belongs to one
// block and therefore one connection, so its samples arrive in T order
// and no frame buffer is shared between goroutines.
func closedLoop(conns []*conn, frames [][][]byte, origin time.Time, stop *atomic.Bool) closedRun {
	blocks := len(frames[0])
	run := closedRun{sent: make([]int, blocks)}
	for b := range run.sent {
		run.sent[b] = 1
	}
	perConn := make([][]done, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for t := 1; ; t++ {
				for b := ci; b < blocks; b += len(conns) {
					if stop.Load() {
						return
					}
					frame := frames[t%len(frames)][b]
					setFrameT(frame, t)
					want := frameSamples(frame)
					start := time.Since(origin)
					acked, ok := c.send(http.MethodPost, "/ingest?quiet=1", serving.WireContentType, frame, want)
					end := time.Since(origin)
					if ok {
						// A frame the server refused did not advance its
						// instances; the served-prediction check replays
						// only what was accepted.
						run.sent[b]++
					}
					perConn[ci] = append(perConn[ci], done{
						kind: opIngest, due: start, start: start, end: end,
						samples: acked, ok: ok && end-start <= maxLatency,
					})
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, d := range perConn {
		run.reqs = append(run.reqs, d...)
	}
	return run
}

// frameSamples reads the sample count from a binary frame's header
// (uint32 at byte 50, see internal/serving/wire.go).
func frameSamples(frame []byte) int {
	return int(binary.LittleEndian.Uint32(frame[50:54]))
}

// firstTickOps is the closed loop's registration tick: every block's
// tick-0 frame.
func firstTickOps(frames [][][]byte) []op {
	ops := make([]op, len(frames[0]))
	for b, frame := range frames[0] {
		setFrameT(frame, 0)
		ops[b] = op{kind: opIngest, method: http.MethodPost, path: "/ingest?quiet=1",
			ctype: serving.WireContentType, body: frame, samples: frameSamples(frame)}
	}
	return ops
}

// sendOps sends ops as fast as the connections allow: the registration
// tick that ends set-up. It returns an error on the first refusal,
// because nothing that follows would mean anything.
func sendOps(conns []*conn, ops []op) error {
	var next atomic.Int64
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				if _, ok := c.send(o.method, o.path, o.ctype, o.body, o.samples); !ok {
					errs[ci] = fmt.Errorf("first tick: request %d (%s %s) refused", i, o.method, o.path)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends the schedule on its due times regardless of how the
// server keeps up: each connection takes the next request in due order,
// sleeps until it is due and sends it. Latency is counted from the due
// time, so a stall charges the requests queued behind it; start − due is
// how late the generator itself ran.
func openLoop(conns []*conn, ops []op, origin time.Time) []done {
	out := make([]done, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				idle := time.Since(origin) < o.due
				sleepUntil(origin, o.due)
				start := time.Since(origin)
				acked, ok := c.send(o.method, o.path, o.ctype, o.body, o.samples)
				end := time.Since(origin)
				out[i] = done{
					kind: o.kind, due: o.due, start: start, end: end,
					samples: acked, ok: ok && end-o.due <= maxLatency, idle: idle,
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until due has passed since origin. Go's timers wake
// through epoll_wait, whose timeout has millisecond resolution, so
// time.Sleep alone would start one request in ten a millisecond late;
// the last stretch uses nanosleep(2), which is good to tens of
// microseconds and, unlike spinning, costs the server no CPU.
func sleepUntil(origin time.Time, due time.Duration) {
	const coarse = 2 * time.Millisecond
	if wait := due - time.Since(origin); wait > coarse {
		time.Sleep(wait - coarse)
	}
	for {
		wait := due - time.Since(origin)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}
