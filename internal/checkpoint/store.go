package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dvsync/internal/simtime"
)

// Store manages one named checkpoint slot inside a directory with
// crash-safe rotation: every Save writes to a temp file, fsyncs, rotates
// the previous snapshot to a .prev sibling, then renames into place. Load
// verifies the current snapshot and falls back to .prev when the current
// one is corrupt — so a crash mid-Save (or bit rot in the newest file)
// costs at most the newest checkpoint, never the whole slot.
type Store struct {
	dir  string
	name string
}

// NewStore opens (creating if needed) a checkpoint directory for the given
// slot name. Names are restricted to a filename-safe alphabet so a slot
// can never escape the directory.
func NewStore(dir, name string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if !validSlotName(name) {
		return nil, fmt.Errorf("checkpoint: invalid slot name %q", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store directory: %w", err)
	}
	return &Store{dir: dir, name: name}, nil
}

// validSlotName admits [a-zA-Z0-9._-]+ without leading dots.
func validSlotName(s string) bool {
	if s == "" || s[0] == '.' || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Path returns the current snapshot's path.
func (s *Store) Path() string { return filepath.Join(s.dir, s.name+".ckpt") }

// PrevPath returns the rotated previous snapshot's path.
func (s *Store) PrevPath() string { return filepath.Join(s.dir, s.name+".ckpt.prev") }

// Save atomically replaces the slot's snapshot with a new envelope. The
// previous snapshot (if any) survives as .prev until the next Save.
func (s *Store) Save(cfgDigest string, atNs int64, meta, state []byte) error {
	var buf strings.Builder
	if err := Encode(&buf, cfgDigest, simtime.Time(atNs), meta, state); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, s.name+".ckpt.tmp-")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp snapshot: %w", err)
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath)
	if _, err := io.WriteString(tmp, buf.String()); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close snapshot: %w", err)
	}
	if _, err := os.Stat(s.Path()); err == nil {
		if err := os.Rename(s.Path(), s.PrevPath()); err != nil {
			return fmt.Errorf("checkpoint: rotate previous snapshot: %w", err)
		}
	}
	if err := os.Rename(tmpPath, s.Path()); err != nil {
		return fmt.Errorf("checkpoint: install snapshot: %w", err)
	}
	return nil
}

// Load reads and verifies the newest usable snapshot: the current file
// first, falling back to the rotated .prev when the current one is
// missing or fails verification. It returns fs.ErrNotExist when the slot
// holds no usable snapshot at all.
func (s *Store) Load() (*Envelope, error) {
	env, errCur := ReadFile(s.Path())
	if errCur == nil {
		return env, nil
	}
	env, errPrev := ReadFile(s.PrevPath())
	if errPrev == nil {
		return env, nil
	}
	if errors.Is(errCur, fs.ErrNotExist) && errors.Is(errPrev, fs.ErrNotExist) {
		return nil, fmt.Errorf("checkpoint: no snapshot for slot %q: %w", s.name, fs.ErrNotExist)
	}
	return nil, fmt.Errorf("checkpoint: slot %q unusable: current: %w; previous: %v", s.name, errCur, errPrev)
}

// Clear removes the slot's snapshots. Missing files are not errors.
func (s *Store) Clear() error {
	var first error
	for _, p := range []string{s.Path(), s.PrevPath()} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// ReadFile decodes and verifies a snapshot file.
func ReadFile(path string) (*Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
