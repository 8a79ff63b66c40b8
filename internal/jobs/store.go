package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Store is a content-addressed result cache rooted at a local directory.
// Each completed job is persisted as one object named by its key hash the
// moment it finishes, which doubles as the sweep journal: re-running an
// interrupted sweep against the same store skips every journaled cell.
//
// Layout:
//
//	<dir>/objects/<hh>/<hash>.json   one envelope per completed job
//	<dir>/journal.jsonl              append-only completion log
//
// Object writes are atomic (temp file + rename), so a crash mid-write never
// corrupts a cell and processes sharing the directory never read a partial
// object; writing the same hash twice is harmless, since equal keys carry
// equal bytes (verify mode checks exactly that). The journal is advisory
// observability — the objects are the source of truth for both caching and
// resume. A Store is safe for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex // serializes journal appends within this process
}

// envelope is the stored form of one result, carrying enough context to
// audit a cell without recomputing its key.
type envelope struct {
	Schema int             `json:"schema"`
	Kind   string          `json:"kind"`
	Key    json.RawMessage `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Open opens (creating if needed) a store rooted at the local directory dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) objectPath(hash string) string {
	return filepath.Join(st.dir, "objects", hash[:2], hash+".json")
}

// Get looks k up and, on a hit, decodes the stored result into out (a
// pointer). A missing object, a kind mismatch, or a stale schema all read
// as a miss; only I/O and decode problems are errors.
func (st *Store) Get(k Key, kind string, out any) (bool, error) {
	b, err := os.ReadFile(st.objectPath(k.Hash))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("jobs: reading cache object: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return false, fmt.Errorf("jobs: decoding cache object %s: %w", k.Hash, err)
	}
	if env.Schema != SchemaVersion || env.Kind != kind {
		return false, nil
	}
	if err := json.Unmarshal(env.Result, out); err != nil {
		return false, fmt.Errorf("jobs: decoding cached result %s: %w", k.Hash, err)
	}
	return true, nil
}

// Put journals a completed job's result under its key, atomically.
func (st *Store) Put(k Key, kind string, result any) error {
	res, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("jobs: encoding result: %w", err)
	}
	env, err := json.Marshal(envelope{
		Schema: SchemaVersion,
		Kind:   kind,
		Key:    json.RawMessage(k.canonical),
		Result: res,
	})
	if err != nil {
		return fmt.Errorf("jobs: encoding cache object: %w", err)
	}
	if err := st.writeObject(k.Hash, append(env, '\n')); err != nil {
		return fmt.Errorf("jobs: writing cache object: %w", err)
	}
	return nil
}

// journalLine is one entry of journal.jsonl.
type journalLine struct {
	Time string `json:"time"`
	Record
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// appendJournal appends one completion record to the journal. Journal
// failures are reported but never fail the job that produced the result.
func (st *Store) appendJournal(rec Record, d time.Duration) error {
	b, err := json.Marshal(journalLine{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Record:     rec,
		DurationMS: d.Milliseconds(),
	})
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(st.dir, "journal.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeObject stores data under hash: temp file + rename in the object's own
// directory, so the visible file is always complete.
func (st *Store) writeObject(hash string, data []byte) error {
	path := st.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+hash+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
