package ingest

// Queued reports mutations still waiting at the station.
func (ing *Ingester) Queued() int { return ing.queue.Len() }

// Inserts and Deletes report applied mutation counts.
func (s *Store) Inserts() int { return s.inserts }

// Deletes reports applied delete count.
func (s *Store) Deletes() int { return s.deletes }
