package codec

import (
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
)

// Column is one field of a row kind, written for all rows at once.
type Column[T any] interface {
	put(w *Writer, rows []T)
	get(r *Reader, rows []T)
	minBytes() int // the fewest bytes one row's value can take
}

// Schema is the ordered column list of one row kind.
type Schema[T any] []Column[T]

// Append writes rows as one block.
func (s Schema[T]) Append(w *Writer, rows []T) {
	for _, c := range s {
		c.put(w, rows)
	}
}

// Decode reads a block of n rows into scratch's storage when it has the
// capacity, or into a new slice, and returns the rows. Errors are left
// in r; the rows are then unspecified, and nil if n rows of the
// schema's minimum size cannot fit in the bytes left.
func (s Schema[T]) Decode(r *Reader, scratch []T, n int) []T {
	size := 0
	for _, c := range s {
		size += c.minBytes()
	}
	if !r.fits(n, size) {
		return nil
	}
	rows := scratch[:0]
	if cap(rows) < n {
		rows = make([]T, n)
	}
	rows = rows[:n]
	for _, c := range s {
		c.get(r, rows)
	}
	return rows
}

// The row kinds. Their layouts are listed in the package doc.
var (
	Uptime = Schema[dataset.UptimeReport]{
		Refs(func(r *dataset.UptimeReport) *string { return &r.RouterID }),
		Times(func(r *dataset.UptimeReport) *time.Time { return &r.ReportedAt }),
		Varints(func(r *dataset.UptimeReport) *time.Duration { return &r.Uptime }),
	}
	Capacity = Schema[dataset.CapacityMeasure]{
		Refs(func(r *dataset.CapacityMeasure) *string { return &r.RouterID }),
		Times(func(r *dataset.CapacityMeasure) *time.Time { return &r.MeasuredAt }),
		Float64s(func(r *dataset.CapacityMeasure) *float64 { return &r.UpBps }),
		Float64s(func(r *dataset.CapacityMeasure) *float64 { return &r.DownBps }),
	}
	Counts = Schema[dataset.DeviceCount]{
		Refs(func(r *dataset.DeviceCount) *string { return &r.RouterID }),
		Times(func(r *dataset.DeviceCount) *time.Time { return &r.At }),
		Varints(func(r *dataset.DeviceCount) *int { return &r.Wired }),
		Varints(func(r *dataset.DeviceCount) *int { return &r.W24 }),
		Varints(func(r *dataset.DeviceCount) *int { return &r.W5 }),
	}
	Sightings = Schema[dataset.DeviceSighting]{
		Refs(func(r *dataset.DeviceSighting) *string { return &r.RouterID }),
		Times(func(r *dataset.DeviceSighting) *time.Time { return &r.At }),
		MACs(func(r *dataset.DeviceSighting) *mac.Addr { return &r.Device }),
		Uvarints(func(r *dataset.DeviceSighting) *dataset.ConnKind { return &r.Kind }),
	}
	WiFi = Schema[dataset.WiFiScan]{
		Refs(func(r *dataset.WiFiScan) *string { return &r.RouterID }),
		Times(func(r *dataset.WiFiScan) *time.Time { return &r.At }),
		Refs(func(r *dataset.WiFiScan) *string { return &r.Band }),
		Varints(func(r *dataset.WiFiScan) *int { return &r.Channel }),
		Varints(func(r *dataset.WiFiScan) *int { return &r.VisibleAPs }),
		Varints(func(r *dataset.WiFiScan) *int { return &r.Clients }),
	}
	Flows = Schema[dataset.FlowRecord]{
		Refs(func(r *dataset.FlowRecord) *string { return &r.RouterID }),
		MACs(func(r *dataset.FlowRecord) *mac.Addr { return &r.Device }),
		Refs(func(r *dataset.FlowRecord) *string { return &r.Domain }),
		Refs(func(r *dataset.FlowRecord) *string { return &r.Proto }),
		Times(func(r *dataset.FlowRecord) *time.Time { return &r.First }),
		Times(func(r *dataset.FlowRecord) *time.Time { return &r.Last }),
		Varints(func(r *dataset.FlowRecord) *int64 { return &r.UpBytes }),
		Varints(func(r *dataset.FlowRecord) *int64 { return &r.DownBytes }),
		Varints(func(r *dataset.FlowRecord) *int64 { return &r.UpPkts }),
		Varints(func(r *dataset.FlowRecord) *int64 { return &r.DownPkts }),
		Varints(func(r *dataset.FlowRecord) *int64 { return &r.Conns }),
	}
	Throughput = Schema[dataset.ThroughputSample]{
		Refs(func(r *dataset.ThroughputSample) *string { return &r.RouterID }),
		Times(func(r *dataset.ThroughputSample) *time.Time { return &r.Minute }),
		Refs(func(r *dataset.ThroughputSample) *string { return &r.Dir }),
		Float64s(func(r *dataset.ThroughputSample) *float64 { return &r.PeakBps }),
		Varints(func(r *dataset.ThroughputSample) *int64 { return &r.TotalBytes }),
	}
	Keys = Schema[dataset.RouterKey]{
		Refs(func(k *dataset.RouterKey) *string { return &k.Router }),
		Strs(func(k *dataset.RouterKey) *string { return &k.Key }),
	}
)

// Refs is a dictionary-coded string column with a scope of its own.
func Refs[T any](f func(*T) *string) Column[T] { return refs[T](f) }

type refs[T any] func(*T) *string

func (f refs[T]) minBytes() int { return 1 }
func (f refs[T]) put(w *Writer, rows []T) {
	w.ResetDict()
	for i := range rows {
		w.Ref(*f(&rows[i]))
	}
}
func (f refs[T]) get(r *Reader, rows []T) {
	r.ResetDict()
	for i := range rows {
		*f(&rows[i]) = r.Ref()
	}
}

// Strs is a column of plain length-prefixed strings.
func Strs[T any](f func(*T) *string) Column[T] { return strs[T](f) }

type strs[T any] func(*T) *string

func (f strs[T]) minBytes() int { return 1 }
func (f strs[T]) put(w *Writer, rows []T) {
	for i := range rows {
		w.Str(*f(&rows[i]))
	}
}
func (f strs[T]) get(r *Reader, rows []T) {
	for i := range rows {
		*f(&rows[i]) = r.Str()
	}
}

// Varints is a zigzag varint column.
func Varints[T any, I ~int | ~int64](f func(*T) *I) Column[T] { return varints[T, I](f) }

type varints[T any, I ~int | ~int64] func(*T) *I

func (f varints[T, I]) minBytes() int { return 1 }
func (f varints[T, I]) put(w *Writer, rows []T) {
	for i := range rows {
		w.Varint(int64(*f(&rows[i])))
	}
}
func (f varints[T, I]) get(r *Reader, rows []T) {
	for i := range rows {
		*f(&rows[i]) = I(r.Varint())
	}
}

// Uvarints is an unsigned varint column; negative values wrap through
// uint64 and back.
func Uvarints[T any, I ~int](f func(*T) *I) Column[T] { return uvarints[T, I](f) }

type uvarints[T any, I ~int] func(*T) *I

func (f uvarints[T, I]) minBytes() int { return 1 }
func (f uvarints[T, I]) put(w *Writer, rows []T) {
	for i := range rows {
		w.Uvarint(uint64(*f(&rows[i])))
	}
}
func (f uvarints[T, I]) get(r *Reader, rows []T) {
	for i := range rows {
		*f(&rows[i]) = I(r.Uvarint())
	}
}

// Float64s is a little-endian IEEE 754 column.
func Float64s[T any](f func(*T) *float64) Column[T] { return float64s[T](f) }

type float64s[T any] func(*T) *float64

func (f float64s[T]) minBytes() int { return 8 }
func (f float64s[T]) put(w *Writer, rows []T) {
	for i := range rows {
		w.Float64(*f(&rows[i]))
	}
}
func (f float64s[T]) get(r *Reader, rows []T) {
	for i := range rows {
		*f(&rows[i]) = r.Float64()
	}
}

// MACs is a raw 6-byte address column.
func MACs[T any](f func(*T) *mac.Addr) Column[T] { return macs[T](f) }

type macs[T any] func(*T) *mac.Addr

func (f macs[T]) minBytes() int { return len(mac.Addr{}) }
func (f macs[T]) put(w *Writer, rows []T) {
	for i := range rows {
		w.MAC(*f(&rows[i]))
	}
}
func (f macs[T]) get(r *Reader, rows []T) {
	for i := range rows {
		*f(&rows[i]) = r.MAC()
	}
}

// Times is the sentinel-free time column.
func Times[T any](f func(*T) *time.Time) Column[T] { return times[T](f) }

type times[T any] func(*T) *time.Time

func (f times[T]) minBytes() int { return 1 }

func (f times[T]) put(w *Writer, rows []T) {
	zeros := 0
	for i := range rows {
		if f(&rows[i]).IsZero() {
			zeros++
		}
	}
	w.Uvarint(uint64(zeros))
	for i := range rows {
		if f(&rows[i]).IsZero() {
			w.Uvarint(uint64(i))
		}
	}
	var prev int64
	for i := range rows {
		if t := f(&rows[i]); !t.IsZero() {
			sec := t.Unix()
			w.Varint(sec - prev)
			w.Uvarint(uint64(t.Nanosecond()))
			prev = sec
		}
	}
}

// get validates the zero-row list first, then walks it with a second
// cursor while filling rows, so decoding allocates nothing.
func (f times[T]) get(r *Reader, rows []T) {
	nz := r.Count()
	if nz > len(rows) {
		r.Fail("zero-time count %d in a column of %d", nz, len(rows))
		return
	}
	zeros := Reader{buf: r.buf, off: r.off}
	last := -1
	for range nz {
		v := r.Uvarint()
		if v >= uint64(len(rows)) || int(v) <= last {
			r.Fail("zero-time row %d", v)
			return
		}
		last = int(v)
	}
	if r.err != nil {
		return
	}
	next := len(rows) // the next zero row; len(rows) when none is left
	if nz > 0 {
		next = int(zeros.Uvarint())
	}
	var sec int64
	for i := range rows {
		if i == next {
			*f(&rows[i]) = time.Time{}
			if nz--; nz > 0 {
				next = int(zeros.Uvarint())
			}
			continue
		}
		sec += r.Varint()
		nsec := r.Uvarint()
		if nsec >= uint64(time.Second) {
			r.Fail("nanoseconds %d", nsec)
		}
		if r.err != nil {
			return
		}
		*f(&rows[i]) = time.Unix(sec, int64(nsec)).UTC()
	}
}
