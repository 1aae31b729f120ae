package store

// Checkpoint files persist the durable state of in-flight harvesting
// sessions (core.Checkpoint) so a killed harvest resumes instead of
// re-paying every query it already fired. The format mirrors the store
// file: a magic header, framed CRC32-checksummed sections, and an END
// sentinel, so the same reader machinery (and the same forward-
// compatibility rule: skip unknown sections) applies.
//
//	magic "L2QCKPT1"
//	CKPT section: count | per checkpoint:
//	    entity varint | aspect str | booted byte | rPhi f64 | rStarPhi f64
//	    | nFired uvarint | fired str... | nPages uvarint | pageID deltas varint...
//	END sentinel

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"l2q/internal/core"
	"l2q/internal/corpus"
)

// ckptMagic identifies a checkpoint file and its major version.
const ckptMagic = "L2QCKPT1"

const secCheckpoints = "CKPT"

// SaveCheckpoints writes session checkpoints to w in the framed,
// checksummed store format.
func SaveCheckpoints(w io.Writer, cps []core.Checkpoint) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return fmt.Errorf("store: write checkpoint magic: %w", err)
	}
	if err := writeSection(bw, secCheckpoints, func(e *Enc) { encodeCheckpoints(e, cps) }); err != nil {
		return err
	}
	if err := writeSection(bw, secEnd, func(*Enc) {}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// LoadCheckpoints reads a checkpoint file written by SaveCheckpoints.
func LoadCheckpoints(r io.Reader) ([]core.Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read checkpoint magic: %w", err)
	}
	if string(head) != ckptMagic {
		return nil, fmt.Errorf("store: bad magic %q (not a checkpoint file or wrong version)", head)
	}
	var cps []core.Checkpoint
	seen := false
	for {
		name, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		if name == secEnd {
			break
		}
		if name != secCheckpoints {
			continue // forward compatibility: skip unknown sections
		}
		d := NewDec(payload)
		cps = decodeCheckpoints(d)
		seen = true
		if d.Err() != nil {
			return nil, fmt.Errorf("store: section %s: %w", name, d.Err())
		}
		if !d.Done() {
			return nil, fmt.Errorf("store: section %s has %d trailing bytes", name, d.Remaining())
		}
	}
	if !seen {
		return nil, fmt.Errorf("store: missing CKPT section")
	}
	return cps, nil
}

// SaveCheckpointsFile writes the checkpoints to path atomically (temp
// file + rename), so a crash mid-write never truncates the previous
// checkpoint — the whole point of keeping one.
func SaveCheckpointsFile(path string, cps []core.Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := SaveCheckpoints(f, cps); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

// LoadCheckpointsFile reads a checkpoint file from path.
func LoadCheckpointsFile(path string) ([]core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return LoadCheckpoints(f)
}

func encodeCheckpoints(e *Enc, cps []core.Checkpoint) {
	e.Uvarint(uint64(len(cps)))
	for _, cp := range cps {
		e.Varint(int64(cp.Entity))
		e.Str(string(cp.Aspect))
		booted := byte(0)
		if cp.Booted {
			booted = 1
		}
		e.Byte(booted)
		e.F64(cp.RPhi)
		e.F64(cp.RStarPhi)
		e.Uvarint(uint64(len(cp.Fired)))
		for _, q := range cp.Fired {
			e.Str(string(q))
		}
		e.Uvarint(uint64(len(cp.PageIDs)))
		prev := int64(0)
		for _, id := range cp.PageIDs {
			e.Varint(int64(id) - prev)
			prev = int64(id)
		}
	}
}

func decodeCheckpoints(d *Dec) []core.Checkpoint {
	n := d.Count("checkpoints", 21) // 5 varint/string/byte fields + two float64s
	out := make([]core.Checkpoint, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		cp := core.Checkpoint{
			Entity: corpus.EntityID(d.Varint()),
			Aspect: corpus.Aspect(d.Str()),
		}
		cp.Booted = d.Byte() != 0
		cp.RPhi = d.F64()
		cp.RStarPhi = d.F64()
		nFired := d.Count("fired queries", 1)
		for j := 0; j < nFired && d.Err() == nil; j++ {
			cp.Fired = append(cp.Fired, core.Query(d.Str()))
		}
		nPages := d.Count("checkpoint pages", 1)
		prev := int64(0)
		for j := 0; j < nPages && d.Err() == nil; j++ {
			prev += d.Varint()
			cp.PageIDs = append(cp.PageIDs, corpus.PageID(prev))
		}
		out = append(out, cp)
	}
	return out
}
