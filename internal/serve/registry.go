package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"blinkml/internal/modelio"
)

// ErrModelNotFound is returned for lookups and deletes of unknown ids.
var ErrModelNotFound = errors.New("serve: model not found")

// Registry is a persistent, concurrency-safe model store. Every model is
// one file in dir — `m-<seq>.json` in the versioned modelio format — so a
// registry reopened on the same directory serves the same models it did
// before the restart. Stored models are treated as immutable: Get hands out
// shared records that callers must not mutate.
type Registry struct {
	dir string

	mu     sync.RWMutex
	models map[string]*modelio.Model
	seq    uint64 // last id issued (monotonic, survives restarts)
}

// OpenRegistry opens (creating if needed) a registry rooted at dir, loads
// every persisted model and sweeps the temp files any crashed Put left
// behind. Files that fail to decode are skipped with their error collected,
// not fatal: one corrupt file must not take down the whole store.
func OpenRegistry(dir string) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("serve: registry needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create registry dir: %w", err)
	}
	r := &Registry{dir: dir, models: make(map[string]*modelio.Model)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: read registry dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if stray, _ := filepath.Match("m-*.tmp-*", name); stray && !e.IsDir() {
			os.Remove(filepath.Join(dir, name)) // a Put that crashed before its rename
			continue
		}
		if e.IsDir() || !strings.HasPrefix(name, "m-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		m, err := modelio.Decode(f)
		f.Close()
		if err != nil {
			continue // corrupt or future-version file; leave it on disk
		}
		r.models[id] = m
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "m-"), 10, 64); err == nil && n > r.seq {
			r.seq = n
		}
	}
	return r, nil
}

// Dir returns the backing directory.
func (r *Registry) Dir() string { return r.dir }

// Put stores m, persists it to disk (atomically: temp file + rename), and
// returns the assigned id. The id is reserved under the lock but the
// encode and disk write happen outside it, so persisting a large model
// never stalls concurrent Get/List — i.e. prediction traffic.
func (r *Registry) Put(m *modelio.Model) (string, error) {
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("m-%06d", r.seq)
	r.mu.Unlock()

	path := filepath.Join(r.dir, id+".json")
	tmp, err := os.CreateTemp(r.dir, id+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("serve: persist model: %w", err)
	}
	if err := modelio.Encode(tmp, m); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("serve: persist model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("serve: persist model: %w", err)
	}

	r.mu.Lock()
	r.models[id] = m
	r.mu.Unlock()
	return id, nil
}

// Get returns the model for id.
func (r *Registry) Get(id string) (*modelio.Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[id]
	if !ok {
		return nil, ErrModelNotFound
	}
	return m, nil
}

// Delete evicts id from memory and disk.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[id]; !ok {
		return ErrModelNotFound
	}
	delete(r.models, id)
	if err := os.Remove(filepath.Join(r.dir, id+".json")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("serve: delete model file: %w", err)
	}
	return nil
}

// List returns the stored ids in ascending order.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.models))
	for id := range r.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of stored models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
