package harness

// Crash-safe sweep checkpoints. A paper-scale Run is minutes of work; a
// crash (or an operator's ctrl-C) at minute four used to throw all of it
// away. With Options.Checkpoint set, every completed simulation appends one
// JSONL record — its experiment coordinates plus the six digest scalars the
// aggregation needs — and a later Run with the same options skips straight
// past the recorded cells. The file begins with a fingerprint of every
// option that affects simulation results; a mismatch (the sweep changed)
// discards the stale records instead of mixing incompatible runs.
//
// Appending one fsync-free line per completed simulation is deliberate: a
// torn final line (crash mid-write) fails to parse and is simply re-run,
// so the checkpoint never needs a consistency protocol.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
)

// ckptHeader is the first line of a checkpoint file.
type ckptHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// ckptRecord is one completed simulation: coordinates plus the outcome the
// aggregation stage consumes (checkpointing full Results would couple the
// format to every metrics field; simOutcome's six scalars are the whole
// contract). The embedded outcome's keys follow the coordinates on the
// line.
type ckptRecord struct {
	PI   int `json:"pi"`
	SI   int `json:"si"`
	PolI int `json:"poli"`
	AI   int `json:"ai"`
	RI   int `json:"ri"`
	simOutcome
}

type ckptKey struct{ pi, si, poli, ai, ri int }

// checkpointWriter appends records to an open checkpoint file.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// fingerprint hashes every option that affects simulation outcomes (not
// Parallelism, Progress, or the checkpoint path itself — those change how a
// sweep runs, not what it computes). Engine is deliberately excluded: the
// engines are proven byte-identical, so a checkpoint written under one
// engine remains valid under the other (TestCheckpointResumesAcrossEngines).
func fingerprint(o Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "sw=%d|samples=%d|plen=%d|warm=%d|meas=%d|mode=%d|vc=%d|seed=%d",
		o.Switches, o.Samples, o.PacketLength, o.WarmupCycles, o.MeasureCycles,
		o.Mode, o.VirtualChannels, o.Seed)
	for _, p := range o.Ports {
		fmt.Fprintf(h, "|port=%d", p)
	}
	for _, p := range o.Policies {
		fmt.Fprintf(h, "|pol=%d", p)
	}
	for _, a := range o.Algorithms {
		fmt.Fprintf(h, "|alg=%s", a.Name())
	}
	for _, r := range o.Rates {
		fmt.Fprintf(h, "|rate=%v", r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openCheckpoint loads the records of a prior run from path (empty map if
// the file is missing, empty, or fingerprint-mismatched — a mismatch
// truncates) and returns a writer that appends new records to it.
func openCheckpoint(path string, fp string) (map[ckptKey]simOutcome, *checkpointWriter, error) {
	done := make(map[ckptKey]simOutcome)
	fresh := true
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		if sc.Scan() {
			var hdr ckptHeader
			if json.Unmarshal(sc.Bytes(), &hdr) == nil && hdr.Fingerprint == fp {
				fresh = false
				for sc.Scan() {
					var rec ckptRecord
					if json.Unmarshal(sc.Bytes(), &rec) != nil {
						continue // torn tail line from a crash mid-write
					}
					done[ckptKey{rec.PI, rec.SI, rec.PolI, rec.AI, rec.RI}] = rec.simOutcome
				}
			}
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("harness: reading checkpoint %s: %w", path, err)
	}

	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if fresh {
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: opening checkpoint %s: %w", path, err)
	}
	if fresh {
		hdr, _ := json.Marshal(ckptHeader{Fingerprint: fp})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("harness: writing checkpoint header: %w", err)
		}
	}
	return done, &checkpointWriter{f: f}, nil
}

// add appends one completed simulation. Write errors are returned so the
// caller can surface them (a full disk should not silently disable resume).
func (w *checkpointWriter) add(rec ckptRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(append(line, '\n'))
	return err
}

func (w *checkpointWriter) close() error { return w.f.Close() }
