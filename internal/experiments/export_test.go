package experiments

import "time"

// Tab returns the report's i-th table.
func (r *Report) Tab(i int) *Table { return r.tables[i] }

// Dur is the typed accessor of a duration column.
func (r Row) Dur(name string) time.Duration { return r.cell(name).(time.Duration) }
