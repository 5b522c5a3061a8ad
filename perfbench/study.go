package main

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/gateway"
	"natpeek/internal/heartbeat"
	"natpeek/internal/world"
)

// cycleSpan is the study-time width of one router cycle: every payload a
// router exported inside one six-hour window is uploaded together and
// flushed before the next window, the way a gateway's drainer empties
// its spool between measurement passes. Six hours gives ~170 cycles per
// router at paper scale (WiFi scans every ten minutes, hourly census,
// twice-daily uptime and capacity, daily traffic exports).
const cycleSpan = 6 * time.Hour

// payload is one gateway.Sink call recorded from the world run: the
// unit the production client turns into one spooled upload.
type payload struct {
	at        time.Time // study time of the first row, for cycle bucketing
	uptime    *dataset.UptimeReport
	capacity  *dataset.CapacityMeasure
	count     *dataset.DeviceCount
	sightings []dataset.DeviceSighting
	wifi      []dataset.WiFiScan
	flows     []dataset.FlowRecord
	tput      []dataset.ThroughputSample
}

// export hands the payload to a sink exactly as the gateway agent did.
func (p *payload) export(s gateway.Sink) {
	switch {
	case p.uptime != nil:
		s.UptimeReport(*p.uptime)
	case p.capacity != nil:
		s.CapacityMeasure(*p.capacity)
	case p.count != nil:
		s.DeviceCensus(*p.count, p.sightings)
	case p.wifi != nil:
		s.WiFiScan(p.wifi)
	case p.flows != nil:
		s.TrafficFlows(p.flows)
	case p.tput != nil:
		s.TrafficThroughput(p.tput)
	}
}

// apply appends the payload's rows to a plain store, as the collector
// stores them.
func (p *payload) apply(st *dataset.Store) {
	switch {
	case p.uptime != nil:
		st.Uptime = append(st.Uptime, *p.uptime)
	case p.capacity != nil:
		st.Capacity = append(st.Capacity, *p.capacity)
	case p.count != nil:
		st.Counts = append(st.Counts, *p.count)
		st.Sightings = append(st.Sightings, p.sightings...)
	case p.wifi != nil:
		st.WiFi = append(st.WiFi, p.wifi...)
	case p.flows != nil:
		st.Flows = append(st.Flows, p.flows...)
	case p.tput != nil:
		st.Throughput = append(st.Throughput, p.tput...)
	}
}

func (p *payload) addTo(rc *dataset.RowCounts) {
	switch {
	case p.uptime != nil:
		rc.Uptime++
	case p.capacity != nil:
		rc.Capacity++
	case p.count != nil:
		rc.Counts++
		rc.Sightings += len(p.sightings)
	case p.wifi != nil:
		rc.WiFi += len(p.wifi)
	case p.flows != nil:
		rc.Flows += len(p.flows)
	case p.tput != nil:
		rc.Throughput += len(p.tput)
	}
}

type cycle struct {
	payloads []payload
	rows     int
}

type router struct {
	id, country string
	cycles      []cycle
}

// study is a world run recorded as per-router upload cycles.
type study struct {
	routers  []*router
	rows     dataset.RowCounts
	cycles   int
	payloads int
	domains  int
	beatRuns int
	digest   digest // of every row, taken before the replay releases them
}

func totalRows(rc dataset.RowCounts) int {
	return rc.Uptime + rc.Capacity + rc.Counts + rc.Sightings + rc.WiFi + rc.Flows + rc.Throughput
}

func (s *study) totalRows() int { return totalRows(s.rows) }

// recorder is the gateway.Sink the world runs into: it keeps every call
// in order. Heartbeats arrive as run-length-encoded runs and are only
// counted; the replay sends its own live beats.
type recorder struct {
	r    *router
	ps   []payload
	runs int
}

func (c *recorder) Heartbeat(string, time.Time)        { c.runs++ }
func (c *recorder) HeartbeatRun(string, heartbeat.Run) { c.runs++ }
func (c *recorder) UptimeReport(r dataset.UptimeReport) {
	c.ps = append(c.ps, payload{at: r.ReportedAt, uptime: &r})
}
func (c *recorder) CapacityMeasure(m dataset.CapacityMeasure) {
	c.ps = append(c.ps, payload{at: m.MeasuredAt, capacity: &m})
}
func (c *recorder) DeviceCensus(n dataset.DeviceCount, s []dataset.DeviceSighting) {
	c.ps = append(c.ps, payload{at: n.At, count: &n, sightings: append([]dataset.DeviceSighting{}, s...)})
}
func (c *recorder) WiFiScan(s []dataset.WiFiScan) {
	if len(s) > 0 {
		c.ps = append(c.ps, payload{at: s[0].At, wifi: append([]dataset.WiFiScan(nil), s...)})
	}
}
func (c *recorder) TrafficFlows(f []dataset.FlowRecord) {
	if len(f) > 0 {
		c.ps = append(c.ps, payload{at: f[0].First, flows: append([]dataset.FlowRecord(nil), f...)})
	}
}
func (c *recorder) TrafficThroughput(t []dataset.ThroughputSample) {
	if len(t) > 0 {
		c.ps = append(c.ps, payload{at: t[0].Minute, tput: append([]dataset.ThroughputSample(nil), t...)})
	}
}

// buildStudy runs a paper-scale world (126 routers, Table 1 roster) and
// cuts each router's exports into time-ordered cycles.
func buildStudy(seed uint64) (*study, error) {
	w := world.Build(world.Config{Seed: seed})
	st := &study{}
	recs := make([]*recorder, 0, len(w.Homes))
	err := w.RunWith(func(h *world.Home) (gateway.Sink, func() error, error) {
		id := h.Profile.ID
		rec := &recorder{r: &router{id: id, country: w.Store.RouterCountry[id]}}
		recs = append(recs, rec)
		return rec, nil, nil
	})
	if err != nil {
		return nil, err
	}
	domains := make(map[string]struct{})
	for _, rec := range recs {
		sort.SliceStable(rec.ps, func(i, j int) bool { return rec.ps[i].at.Before(rec.ps[j].at) })
		var cur *cycle
		var curWin time.Time
		for i := range rec.ps {
			p := &rec.ps[i]
			win := p.at.Truncate(cycleSpan)
			if cur == nil || !win.Equal(curWin) {
				rec.r.cycles = append(rec.r.cycles, cycle{})
				cur, curWin = &rec.r.cycles[len(rec.r.cycles)-1], win
			}
			var rc dataset.RowCounts
			p.addTo(&rc)
			p.addTo(&st.rows)
			cur.payloads = append(cur.payloads, *p)
			cur.rows += totalRows(rc)
			for _, f := range p.flows {
				domains[f.Domain] = struct{}{}
			}
		}
		st.routers = append(st.routers, rec.r)
		st.cycles += len(rec.r.cycles)
		st.payloads += len(rec.ps)
		st.beatRuns += rec.runs
	}
	st.rows.Routers = len(st.routers)
	st.domains = len(domains)
	st.digest = studyDigest(st)
	return st, nil
}
