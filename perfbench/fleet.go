package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/collector"
)

// newTransport is the one HTTP transport the whole fleet shares, capped
// at nproc connections so the load generator never holds more sockets
// than the host has CPUs.
func newTransport() *http.Transport {
	n := runtime.NumCPU()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.MaxConnsPerHost = n
	tr.MaxIdleConnsPerHost = n
	tr.MaxIdleConns = n
	return tr
}

// fleet is one production collector.Client per replayed router, all in
// this process, all on the shared transport.
type fleet struct {
	routers []*router
	clients []*collector.Client
	tr      *http.Transport
	rows    atomic.Int64 // rows acknowledged
}

// startFleet registers a client for each router. wrap, when non-nil,
// puts a per-client RoundTripper around the shared transport.
func startFleet(routers []*router, udpAddr, httpAddr string, wrap func(i int, rt http.RoundTripper) http.RoundTripper) (*fleet, error) {
	f := &fleet{routers: routers, tr: newTransport()}
	for i, r := range routers {
		var rt http.RoundTripper = f.tr
		if wrap != nil {
			rt = wrap(i, rt)
		}
		c, err := collector.NewClient(r.id, r.country, udpAddr, httpAddr, collector.WithTransport(rt))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("client %s: %w", r.id, err)
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	f.tr.CloseIdleConnections()
}

// check reports the first client whose spool still holds uploads or
// whose delivery failed.
func (f *fleet) check() error {
	for i, c := range f.clients {
		if d := c.SpoolDepth(); d != 0 {
			return fmt.Errorf("router %s: %d uploads still spooled", f.routers[i].id, d)
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("router %s: %w", f.routers[i].id, err)
		}
	}
	return nil
}

// cycleRec is one replayed cycle.
type cycleRec struct {
	router   int
	rows     int
	start    time.Time
	exported time.Time
	beat     time.Time // heartbeat sent
	end      time.Time
}

// runCycle exports one cycle through the router's client, sends one
// heartbeat, and waits for the spool to drain.
func (f *fleet) runCycle(i int, cy *cycle) (cycleRec, error) {
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	c := f.clients[i]
	rec := cycleRec{router: i, rows: cy.rows, start: time.Now()}
	for k := range cy.payloads {
		cy.payloads[k].export(c)
	}
	rec.exported = time.Now()
	c.Heartbeat("", rec.exported)
	rec.beat = time.Now()
	if err := c.Flush(ctx); err != nil {
		return rec, fmt.Errorf("router %s: %w", f.routers[i].id, err)
	}
	rec.end = time.Now()
	f.rows.Add(int64(cy.rows))
	return rec, nil
}

// flushTimeout bounds one cycle's wait for acknowledgement; a healthy
// loopback collector acknowledges in milliseconds.
const flushTimeout = 60 * time.Second

// replay runs every router closed-loop over all its cycles: export a
// cycle, wait for Flush, export the next. After a failure no router
// starts another cycle.
func (f *fleet) replay() ([]cycleRec, error) {
	var (
		mu       sync.Mutex
		all      []cycleRec
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	for i := range f.routers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs := make([]cycleRec, 0, len(f.routers[i].cycles))
			var err error
			for ci := range f.routers[i].cycles {
				if failed.Load() {
					break
				}
				var rec cycleRec
				if rec, err = f.runCycle(i, &f.routers[i].cycles[ci]); err != nil {
					failed.Store(true)
					break
				}
				recs = append(recs, rec)
			}
			mu.Lock()
			all = append(all, recs...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all, firstErr
}
