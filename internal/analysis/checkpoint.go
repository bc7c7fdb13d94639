package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"sleepnet/internal/durable"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// Study checkpoints are JSONL: a header line identifying the campaign, then
// one line per measured block, appended as blocks complete. A killed run
// leaves at worst one torn trailing line, which resume discards; everything
// else is recovered, and only the remaining blocks are re-measured.

const studyCheckpointVersion = 1

type studyCheckpointHeader struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Days    int    `json:"days"`
	Blocks  int    `json:"blocks"`
}

type studyCheckpointLine struct {
	Index int            `json:"i"`
	ID    netsim.BlockID `json:"id"`
	Block MeasuredBlock  `json:"block"` // Info nulled out; restored from the world on load
}

// checkpointWriter appends measured blocks to the checkpoint file; Append is
// safe for concurrent use by the measurement workers.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// Append writes one measured block as a line and flushes it, so the line is
// durable before the next block is handed out.
func (c *checkpointWriter) Append(i int, mb MeasuredBlock) error {
	line := studyCheckpointLine{Index: i, ID: mb.Info.ID, Block: mb}
	line.Block.Info = nil
	data, err := json.Marshal(&line)
	if err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return nil
}

func (c *checkpointWriter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.Flush(); err != nil {
		_ = c.f.Close() // best effort: the flush error is the one to surface
		return err
	}
	return c.f.Close()
}

// openCheckpoint prepares the checkpoint file for a study. With Resume set
// and a matching file present, previously measured blocks are loaded into
// the study and reported in done; the file is then rewritten from its valid
// lines (dropping any torn trailing line) and reopened for append. Without
// Resume the file is started fresh.
func openCheckpoint(path string, w *world.World, sc StudyConfig, study *Study) (*checkpointWriter, map[int]bool, error) {
	header := studyCheckpointHeader{
		Version: studyCheckpointVersion,
		Seed:    sc.Seed,
		Days:    sc.Days,
		Blocks:  len(w.Blocks),
	}
	done := make(map[int]bool)
	var recovered []studyCheckpointLine
	if sc.Resume {
		var err error
		recovered, err = readCheckpoint(path, header)
		if err != nil {
			return nil, nil, err
		}
		for _, line := range recovered {
			if line.Index < 0 || line.Index >= len(w.Blocks) {
				return nil, nil, fmt.Errorf("analysis: checkpoint %s: block index %d out of range", path, line.Index)
			}
			info := w.Blocks[line.Index]
			if info.ID != line.ID {
				return nil, nil, fmt.Errorf("analysis: checkpoint %s: block %d is %s, checkpoint says %s (different world?)", path, line.Index, info.ID, line.ID)
			}
			mb := line.Block
			mb.Info = info
			study.Blocks[line.Index] = mb
			done[line.Index] = true
		}
	}

	// Rewrite the file from the header plus recovered lines (atomically, so
	// a kill during the rewrite cannot lose them), then reopen for append.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(&header); err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	for i := range recovered {
		if err := enc.Encode(&recovered[i]); err != nil {
			return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
		}
	}
	if err := durable.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return &checkpointWriter{f: af, w: bufio.NewWriter(af)}, done, nil
}

// readCheckpoint loads the valid lines of an existing checkpoint file. A
// missing file yields no lines and no error; a header that does not match
// the current campaign is an error (measuring a different world into the
// same file would silently mix datasets). A torn trailing line (killed
// mid-write) is discarded; a torn line in the middle is an error.
func readCheckpoint(path string, want studyCheckpointHeader) ([]studyCheckpointLine, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, nil // empty file: start fresh
	}
	var header studyCheckpointHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return nil, fmt.Errorf("analysis: checkpoint %s: bad header: %w", path, err)
	}
	if header != want {
		return nil, fmt.Errorf("analysis: checkpoint %s: header %+v does not match campaign %+v", path, header, want)
	}
	var lines []studyCheckpointLine
	var torn bool
	for sc.Scan() {
		if torn {
			return nil, fmt.Errorf("analysis: checkpoint %s: corrupt line %d (not at end of file)", path, len(lines)+2)
		}
		var line studyCheckpointLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			torn = true // tolerated only as the final line
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analysis: checkpoint %s: %w", path, err)
	}
	return lines, nil
}
