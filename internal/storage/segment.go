package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segment is one append-only log file. Segments are named
// seg-<8-digit-index>.log and rotated by their owner (the archive, the
// DLQ) past its size limit. Only the newest segment is open for writing.
// The event store only reads segments, importing those a pre-chunk
// store left behind.
type segment struct {
	index int
	path  string
	f     *os.File
	size  int64
}

const segmentPrefix = "seg-"
const segmentSuffix = ".log"

func segmentPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, index, segmentSuffix))
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue // unrelated file that happens to match the affixes
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// openSegmentForAppend opens (creating if needed) the segment file for
// appending and records its current size.
func openSegmentForAppend(dir string, index int) (*segment, error) {
	path := segmentPath(dir, index)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{index: index, path: path, f: f, size: st.Size()}, nil
}

// append writes one framed record and returns its size on disk.
func (s *segment) append(frame []byte) error {
	n, err := s.f.Write(frame)
	s.size += int64(n)
	return err
}

func (s *segment) sync() error  { return s.f.Sync() }
func (s *segment) close() error { return s.f.Close() }

// scanSegment replays every intact record of a segment file, invoking fn
// with each payload (valid only during the call). On a torn or corrupt
// tail it truncates the file at the last intact record boundary and
// returns the number of dropped trailing bytes. Corruption that is *not*
// at the tail (intact records follow it) cannot be distinguished from a
// torn tail by a sequential scan; everything after the first bad record is
// dropped, which matches WAL semantics.
func scanSegment(path string, fn func(payload []byte) error) (dropped int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var validBytes int64
	var buf []byte
	for {
		payload, rerr := readRecord(br, buf)
		if rerr == io.EOF {
			return 0, nil
		}
		if errors.Is(rerr, ErrCorruptRecord) {
			// Torn tail: truncate to the last valid boundary.
			if terr := os.Truncate(path, validBytes); terr != nil {
				return 0, fmt.Errorf("storage: truncating torn tail of %s: %w", path, terr)
			}
			return st.Size() - validBytes, nil
		}
		if rerr != nil {
			return 0, rerr
		}
		buf = payload[:0]
		if err := fn(payload); err != nil {
			return 0, err
		}
		validBytes += int64(headerSize + len(payload))
	}
}
