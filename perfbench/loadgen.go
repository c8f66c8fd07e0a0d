package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to a dmfbd. Requests are
// written as pre-rendered bytes and responses parsed with
// http.ReadResponse, so the load generator spends little CPU per request
// next to the server it shares the machine with.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// do sends one request and reads the whole response body into buf.
func (c *conn) do(raw []byte, buf *bytes.Buffer) (int, error) {
	if _, err := c.c.Write(raw); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// Response is one answered request.
type Response struct {
	Client  int
	Index   int // position in the client's stream
	Status  int
	Latency time.Duration
	Done    time.Time // when the answer's last byte arrived
	Body    int       // index into the client's distinct bodies; -1 on transport error
}

// clientLog is one client's record of a phase. Bodies repeat heavily on
// warm workloads, so each client keeps a body only when it differs from
// the last body it saw for the same spec.
type clientLog struct {
	resps  []Response
	bodies [][]byte
	last   map[int]int
	err    error
}

func (l *clientLog) keep(spec int, body []byte) int {
	if i, ok := l.last[spec]; ok && bytes.Equal(l.bodies[i], body) {
		return i
	}
	l.bodies = append(l.bodies, append([]byte(nil), body...))
	l.last[spec] = len(l.bodies) - 1
	return len(l.bodies) - 1
}

// Phase is the result of driving one stream per client.
type Phase struct {
	Clients []*clientLog
	Start   time.Time
	End     time.Time
	CPU     time.Duration // load-generator CPU (this process) over the phase
}

// drive runs one closed-loop client per stream against the server at
// addr: each client sends a request of w and waits for the answer before
// sending the next. With a duration, each client loops over its stream
// until the deadline; without, each client sends its stream once.
func drive(addr string, w *Workload, streams [][]Request, dur time.Duration) (*Phase, error) {
	conns := make([]*conn, 0, len(streams))
	defer func() {
		for _, c := range conns {
			c.c.Close()
		}
	}()
	for range streams {
		cn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, cn)
	}
	ph := &Phase{Clients: make([]*clientLog, len(streams))}
	for c := range streams {
		ph.Clients[c] = &clientLog{last: map[int]int{}, resps: make([]Response, 0, 1<<14)}
	}
	cpu0 := selfCPU()
	ph.Start = time.Now()
	deadline := ph.Start.Add(dur)
	var wg sync.WaitGroup
	ends := make([]time.Time, len(streams))
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := ph.Clients[c]
			stream := streams[c]
			var buf bytes.Buffer
			for i := 0; ; i++ {
				if dur > 0 && !time.Now().Before(deadline) {
					break
				}
				if dur == 0 && i >= len(stream) {
					break
				}
				req := stream[i%len(stream)]
				raw := w.Raw(req)
				t0 := time.Now()
				status, err := conns[c].do(raw, &buf)
				now := time.Now()
				r := Response{Client: c, Index: i, Status: status, Latency: now.Sub(t0), Done: now, Body: -1}
				if err != nil {
					log.err = fmt.Errorf("client %d request %d: %w", c, i, err)
					log.resps = append(log.resps, r)
					break
				}
				r.Body = log.keep(req.Spec, buf.Bytes())
				log.resps = append(log.resps, r)
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	ph.End = ph.Start
	for _, e := range ends {
		if e.After(ph.End) {
			ph.End = e
		}
	}
	ph.CPU = selfCPU() - cpu0
	for _, l := range ph.Clients {
		if l.err != nil {
			return ph, l.err
		}
	}
	return ph, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
