package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// DLQ instrumentation.
var (
	metDLQAppends = obs.GetCounter("storypivot_dlq_entries_total",
		"records appended to the dead-letter queue")
	metDLQDepth = obs.GetGauge("storypivot_dlq_depth",
		"dead-letter entries currently held")
)

// DLQEntry is one quarantined input record: a payload that could not be
// decoded into a snippet (or could not be ingested), kept verbatim with
// enough context to inspect and replay it later.
type DLQEntry struct {
	Source string    // feed source the record came from
	Cursor string    // source cursor at which the record was fetched
	Reason string    // why it was dead-lettered
	At     time.Time // when it was dead-lettered
	Raw    []byte    // the offending bytes, verbatim
}

// dlqSegLimit rotates DLQ segments past this size, matching the
// archive. Without rotation one misbehaving upstream grows a single
// unbounded file whose full rescan every open pays for.
const dlqSegLimit = 64 << 20

// DLQ is an append-only, crash-safe dead-letter queue. Entries use the
// same CRC-framed record layout as the event log, so torn tails from a
// crash are truncated on open rather than poisoning recovery. Appends
// are fsynced: a dead-lettered record is evidence of a misbehaving
// upstream, and losing it to a crash defeats its purpose. A DLQ is safe
// for concurrent use.
type DLQ struct {
	mu       sync.Mutex
	dir      string
	segLimit int64
	seg      *segment
	frameBuf []byte
	entries  []DLQEntry
	closed   bool
}

// OpenDLQ opens (creating if necessary) a dead-letter queue in dir,
// replaying existing entries into memory. Undecodable but well-framed
// payloads are skipped — the DLQ must never refuse to open because of
// the very corruption it exists to capture.
func OpenDLQ(dir string) (*DLQ, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DLQ{dir: dir, segLimit: dlqSegLimit}
	indices, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, idx := range indices {
		if _, err := scanSegment(segmentPath(dir, idx), func(payload []byte) error {
			if e, derr := decodeDLQEntry(payload); derr == nil {
				d.entries = append(d.entries, e)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	next := 1
	if len(indices) > 0 {
		next = indices[len(indices)-1]
	}
	seg, err := openSegmentForAppend(dir, next)
	if err != nil {
		return nil, err
	}
	d.seg = seg
	metDLQDepth.Set(int64(len(d.entries)))
	return d, nil
}

// Append persists one entry durably (fsync) and indexes it in memory.
func (d *DLQ) Append(e DLQEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	if d.seg.size > d.segLimit {
		next, err := openSegmentForAppend(d.dir, d.seg.index+1)
		if err != nil {
			return err
		}
		d.seg.close()
		d.seg = next
	}
	d.frameBuf = appendRecord(d.frameBuf[:0], encodeDLQEntry(nil, e))
	if err := d.seg.append(d.frameBuf); err != nil {
		return err
	}
	if err := d.seg.sync(); err != nil {
		return err
	}
	// Entries hold their own copy: callers commonly pass scan buffers.
	e.Raw = append([]byte(nil), e.Raw...)
	d.entries = append(d.entries, e)
	metDLQAppends.Inc()
	metDLQDepth.Set(int64(len(d.entries)))
	return nil
}

// Len returns the number of entries held.
func (d *DLQ) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Entries returns a copy of all entries in append order.
func (d *DLQ) Entries() []DLQEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]DLQEntry(nil), d.entries...)
}

// Close closes the queue. Further appends return ErrClosed.
func (d *DLQ) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.closed = true
	return d.seg.close()
}

// DLQ entry payload layout (all little-endian):
//
//	i64 unixNano | str source | str cursor | str reason | str raw
//
// where str is u32 length + bytes.
func encodeDLQEntry(buf []byte, e DLQEntry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.At.UnixNano()))
	for _, s := range [][]byte{[]byte(e.Source), []byte(e.Cursor), []byte(e.Reason), e.Raw} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeDLQEntry(buf []byte) (DLQEntry, error) {
	var e DLQEntry
	if len(buf) < 8 {
		return e, fmt.Errorf("storage: dlq entry truncated")
	}
	e.At = time.Unix(0, int64(binary.LittleEndian.Uint64(buf[:8]))).UTC()
	buf = buf[8:]
	fields := make([][]byte, 4)
	for i := range fields {
		if len(buf) < 4 {
			return e, fmt.Errorf("storage: dlq entry truncated")
		}
		n := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		if uint32(len(buf)) < n {
			return e, fmt.Errorf("storage: dlq entry truncated")
		}
		fields[i] = append([]byte(nil), buf[:n]...)
		buf = buf[n:]
	}
	e.Source, e.Cursor, e.Reason, e.Raw = string(fields[0]), string(fields[1]), string(fields[2]), fields[3]
	return e, nil
}
