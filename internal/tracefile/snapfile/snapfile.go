// Package snapfile stores machine snapshots on disk: the checkpoint
// format that lets a long trace replay pause, persist its complete
// simulator state, and resume (or fork) in another process. It is a
// sibling of the tracefile trace format rather than part of it because
// it imports the machine package, which the machine tests' tracefile
// dependency would otherwise turn into an import cycle.
package snapfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rnuma/internal/machine"
)

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: every read here
// is mid-structure, so a clean EOF still means a truncated snapshot.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Machine snapshots get their own on-disk format so a long trace replay
// can checkpoint at a pause point and resume (or fork) in another
// process:
//
//	magic      [4]byte  "RNSS"
//	version    byte     3
//	payloadLen uvarint  gob-encoded machine.Snapshot size
//	payload    payloadLen bytes
//	crc        [4]byte  little-endian CRC-32C (Castagnoli) of the payload
//	<EOF>      trailing bytes are an error
//
// The payload is a gob stream of the machine.Snapshot structure: every
// semantic constraint (cache shapes, directory consistency, free-list
// sanity) is re-validated by machine.Restore on load, so the envelope
// only needs to guarantee integrity — which the length and checksum do,
// rejecting truncated or bit-flipped files before any state is
// installed. A version-3 payload lists only the page-cache frames a run
// created and carries stats.Run's windowed counters as one embedded
// telemetry.Counters; files of another version are rejected, since gob
// drops a field the reader's type lacks without an error.
const (
	snapshotMagic   = "RNSS"
	snapshotVersion = 3

	// maxSnapshotLen bounds the payload allocation when reading untrusted
	// input. Real snapshots are a few MB (dominated by the dense per-page
	// tables and cache contents); 256 MB is far beyond any valid machine
	// while keeping a crafted header's allocation survivable.
	maxSnapshotLen = 1 << 28
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Write serializes a machine snapshot to w in the RNSS format.
func Write(w io.Writer, s *machine.Snapshot) error {
	if s == nil {
		return fmt.Errorf("snapfile: nil snapshot")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("snapfile: encoding snapshot: %w", err)
	}
	hdr := append([]byte(snapshotMagic), snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(payload.Len()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), snapshotCRC))
	_, err := w.Write(crc[:])
	return err
}

// Read reads and validates an RNSS-format snapshot from r. The
// reader must be positioned at the magic and must end after the
// checksum; truncation, trailing bytes, and checksum mismatches are all
// errors, reported before any snapshot data is returned.
func Read(r io.Reader) (*machine.Snapshot, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("snapfile: reading snapshot header: %w", noEOF(err))
	}
	if string(head[:4]) != snapshotMagic {
		return nil, fmt.Errorf("snapfile: bad snapshot magic %q", head[:4])
	}
	if head[4] != snapshotVersion {
		return nil, fmt.Errorf("snapfile: unsupported snapshot version %d", head[4])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("snapfile: reading snapshot length: %w", noEOF(err))
	}
	if n > maxSnapshotLen {
		return nil, fmt.Errorf("snapfile: snapshot payload %d bytes exceeds the %d-byte bound", n, maxSnapshotLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("snapfile: snapshot truncated: %w", noEOF(err))
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("snapfile: snapshot truncated: %w", noEOF(err))
	}
	if got, want := crc32.Checksum(payload, snapshotCRC), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("snapfile: snapshot checksum mismatch (payload %08x, trailer %08x)", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("snapfile: trailing bytes after snapshot")
	}
	s := new(machine.Snapshot)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(s); err != nil {
		return nil, fmt.Errorf("snapfile: decoding snapshot: %w", err)
	}
	return s, nil
}

// WriteFile writes a snapshot to a file on disk.
func WriteFile(path string, s *machine.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a snapshot from a file on disk.
func ReadFile(path string) (*machine.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
