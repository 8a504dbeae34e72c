package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"rahtm"
	"rahtm/internal/serve"
)

// daemon is an in-process rahtm-serve instance on a loopback port.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error
	client *http.Client
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(context.Background(), cfg)
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/solve",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, drains the solve queue, and
// waits for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// reply is one POST /solve exchange as the client saw it.
type reply struct {
	latency time.Duration // send to decoded reply
	queueMS float64       // X-Rahtm-Queue-Ms; -1 when absent (cache hits)
	res     rahtm.Result
	err     error // transport error, non-200 status or undecodable body
	done    bool
}

func (d *daemon) post(ctx context.Context, body []byte) reply {
	r := reply{queueMS: -1, done: true}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return r
	}
	if err := json.NewDecoder(resp.Body).Decode(&r.res); err != nil {
		r.err = fmt.Errorf("decoding reply: %w", err)
		return r
	}
	r.latency = time.Since(start)
	if q := resp.Header.Get(serve.QueueHeader); q != "" {
		if v, err := strconv.ParseFloat(q, 64); err == nil {
			r.queueMS = v
		}
	}
	return r
}
