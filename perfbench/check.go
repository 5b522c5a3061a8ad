package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/mac"
)

// digest is an order-independent fingerprint of a store's rows: per data
// set, the row count and the wrapping sum of a 64-bit hash of every
// row. A lost row and a duplicated one cannot cancel unless their hashes
// collide, so equal digests mean the same multiset of rows.
type digest struct {
	rows dataset.RowCounts
	sum  [7]uint64
}

type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ hasher(s[i])) * 1099511628211
	}
	*h = (*h ^ 0xff) * 1099511628211
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ hasher(byte(v>>(8*i)))) * 1099511628211
	}
}

func (h *hasher) i64(v int64)    { h.u64(uint64(v)) }
func (h *hasher) t(v time.Time)  { h.i64(v.UnixNano()) }
func (h *hasher) f(v float64)    { h.u64(math.Float64bits(v)) }
func (h *hasher) mac(a mac.Addr) { h.str(string(a[:])) }
func (h hasher) final() uint64 {
	z := uint64(h)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *digest) uptime(r dataset.UptimeReport) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.ReportedAt)
	h.i64(int64(r.Uptime))
	d.sum[0] += h.final()
	d.rows.Uptime++
}

func (d *digest) capacity(r dataset.CapacityMeasure) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.MeasuredAt)
	h.f(r.UpBps)
	h.f(r.DownBps)
	d.sum[1] += h.final()
	d.rows.Capacity++
}

func (d *digest) count(r dataset.DeviceCount) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.At)
	h.i64(int64(r.Wired))
	h.i64(int64(r.W24))
	h.i64(int64(r.W5))
	d.sum[2] += h.final()
	d.rows.Counts++
}

func (d *digest) sighting(r dataset.DeviceSighting) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.At)
	h.mac(r.Device)
	h.i64(int64(r.Kind))
	d.sum[3] += h.final()
	d.rows.Sightings++
}

func (d *digest) wifi(r dataset.WiFiScan) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.At)
	h.str(r.Band)
	h.i64(int64(r.Channel))
	h.i64(int64(r.VisibleAPs))
	h.i64(int64(r.Clients))
	d.sum[4] += h.final()
	d.rows.WiFi++
}

func (d *digest) flow(r dataset.FlowRecord) {
	h := newHasher()
	h.str(r.RouterID)
	h.mac(r.Device)
	h.str(r.Domain)
	h.str(r.Proto)
	h.t(r.First)
	h.t(r.Last)
	h.i64(r.UpBytes)
	h.i64(r.DownBytes)
	h.i64(r.UpPkts)
	h.i64(r.DownPkts)
	h.i64(r.Conns)
	d.sum[5] += h.final()
	d.rows.Flows++
}

func (d *digest) throughput(r dataset.ThroughputSample) {
	h := newHasher()
	h.str(r.RouterID)
	h.t(r.Minute)
	h.str(r.Dir)
	h.f(r.PeakBps)
	h.i64(r.TotalBytes)
	d.sum[6] += h.final()
	d.rows.Throughput++
}

func (d *digest) addStore(st *dataset.Store) {
	for _, r := range st.Uptime {
		d.uptime(r)
	}
	for _, r := range st.Capacity {
		d.capacity(r)
	}
	for _, r := range st.Counts {
		d.count(r)
	}
	for _, r := range st.Sightings {
		d.sighting(r)
	}
	for _, r := range st.WiFi {
		d.wifi(r)
	}
	for _, r := range st.Flows {
		d.flow(r)
	}
	for _, r := range st.Throughput {
		d.throughput(r)
	}
}

func (d *digest) addPayload(p *payload) {
	var st dataset.Store
	p.apply(&st)
	d.addStore(&st)
}

func studyDigest(s *study) digest {
	var d digest
	for _, r := range s.routers {
		for ci := range r.cycles {
			for k := range r.cycles[ci].payloads {
				d.addPayload(&r.cycles[ci].payloads[k])
			}
		}
	}
	return d
}

// checkRows is the row part of the correctness gate: every data set
// holds exactly the study's rows, none lost and none twice, and the
// roster names every router.
func checkRows(s *study, got []*dataset.Store) error {
	want := s.digest
	var d digest
	routers := make(map[string]string)
	for _, st := range got {
		d.addStore(st)
		for id, cc := range st.RouterCountry {
			routers[id] = cc
		}
	}
	d.rows.Routers = len(routers)
	want.rows.Routers = len(s.routers)
	if d.rows != want.rows {
		return fmt.Errorf("row counts differ: ingested %+v, study %+v", d.rows, want.rows)
	}
	if d.sum != want.sum {
		return fmt.Errorf("row digests differ with equal counts: rows were lost and duplicated")
	}
	for _, r := range s.routers {
		if routers[r.id] != r.country {
			return fmt.Errorf("router %s registered as %q, want %q", r.id, routers[r.id], r.country)
		}
	}
	return nil
}

func renderText(reps []*figures.Report) string {
	var b strings.Builder
	for _, r := range reps {
		b.WriteString(r.String())
	}
	return b.String()
}

// checkFigures compares the incremental dashboard with the batch
// figures over the merged store.
func checkFigures(dash, batch []*figures.Report) error {
	a, b := renderText(dash), renderText(batch)
	if a == b {
		return nil
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Errorf("dashboard render differs from batch figures at line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Errorf("dashboard render has %d lines, batch figures %d", len(al), len(bl))
}
