package store

import (
	"errors"
	"fmt"
	"os"
)

// Delete removes the entry for key. Deleting a missing entry is not an
// error.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len returns the number of listable entries.
func (s *Store) Len() (int, error) {
	es, err := s.List()
	return len(es), err
}
