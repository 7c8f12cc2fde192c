package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// outcome is one push request as the client saw it. The response body
// is kept raw; it is decoded only after timing.
type outcome struct {
	status int
	body   []byte
	err    error
	due    time.Time // open loop: when the batch was scheduled
	sent   time.Time
	done   time.Time
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// client pushes batches to one entry point over at most conns
// keep-alive connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: addr + "/v1/push"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) push(b *batch, o *outcome) {
	o.sent = time.Now()
	resp, err := c.hc.Post(c.url, "application/x-ndjson", bytes.NewReader(b.body))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.err = err
	o.done = time.Now()
}

// closedLoop sends each connection's batches in order, one goroutine
// per connection, each sending its next batch as soon as the previous
// one returns.
func (c *client) closedLoop(bs []*batch) ([]outcome, time.Duration) {
	outs := make([]outcome, len(bs))
	start := time.Now()
	var wg sync.WaitGroup
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i, b := range bs {
				if b.conn == conn {
					c.push(b, &outs[i])
				}
			}
		}(conn)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop schedules batch i at start + i/rate and sends the schedule
// over one connection, in order. A batch that falls due while the
// previous one is still in flight is sent late; latency is measured from
// the due time, so a stall counts against every batch behind it. One
// connection keeps batches from overlapping on the server, so a latency
// is one batch's service time plus any backlog, not the luck of two
// batches sharing the CPUs.
func (c *client) openLoop(bs []*batch, rate float64) ([]outcome, time.Duration) {
	outs := make([]outcome, len(bs))
	start := time.Now().Add(5 * time.Millisecond)
	for i := range bs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].due = due
		c.push(bs[i], &outs[i])
	}
	return outs, time.Since(start)
}

// get fetches url and requires a 200.
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// post sends body to url and requires a 200.
func (c *client) post(url string, body []byte) error {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // only used in the error text
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, msg)
	}
	return nil
}
