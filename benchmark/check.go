package main

import (
	"context"
	"fmt"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/stream"
)

// rowSource is the benchmark's own copy of everything the store can hold:
// the generated dataset followed by the plan's append batches in order
// (append i's rows get ids Rows+i*appendRows...).
type rowSource struct {
	ds      *dataset.Dataset
	appends []appendBatch
}

func (s rowSource) row(id int) []float64 {
	if id < s.ds.Len() {
		return s.ds.Row(dataset.RowID(id))
	}
	id -= s.ds.Len()
	return s.appends[id/appendRows].Rows[id%appendRows]
}

// verifyResults is the correctness gate for the reference round: every
// session's /result must equal a brute-force scan of the rows that were
// committed when the session last selected, classified by the session's
// final model (taken from the engine-level replay). It returns the mean F1
// against the oracle's ground truth and the number of mismatching sessions.
func verifyResults(p plan, src rowSource, ref roundResult, eng *engineTarget) (f1 float64, bad int, err error) {
	for i, sp := range p.Sessions {
		model := eng.model(i)
		if model == nil {
			return 0, 0, fmt.Errorf("session %d: engine replay produced no model", i)
		}
		got := ref.Results[i]
		box := sp.Region.Box()
		var tp, truth, k int
		same := true
		for id := 0; id < ref.Visible[i]; id++ {
			row := src.row(id)
			relevant := box.Contains(row)
			if relevant {
				truth++
			}
			cls, err := learn.Predict(model, row)
			if err != nil {
				return 0, 0, err
			}
			if cls != learn.ClassPositive {
				continue
			}
			if k < len(got) && got[k] == uint32(id) {
				k++
				if relevant {
					tp++
				}
			} else {
				same = false
			}
		}
		if !same || k != len(got) {
			bad++
			continue
		}
		if len(got)+truth > 0 {
			f1 += 2 * float64(tp) / float64(len(got)+truth)
		}
	}
	return f1 / float64(len(p.Sessions)), bad, nil
}

// verifyReopen reopens a live store after its last round, makes the
// acknowledged rows readable (they may still sit in the WAL), and compares
// every appended row with what was sent. It reports the reopen time.
func verifyReopen(dir string, src rowSource, totalRows int) (reopen time.Duration, err error) {
	ctx := context.Background()
	t0 := time.Now()
	db, err := stream.Open(dir, stream.Options{})
	reopen = time.Since(t0)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if db.TotalRows() != totalRows {
		return 0, fmt.Errorf("reopened store holds %d rows, %d were acknowledged", db.TotalRows(), totalRows)
	}
	if err := db.Flush(ctx); err != nil {
		return 0, err
	}
	snap, err := db.Acquire()
	if err != nil {
		return 0, err
	}
	defer snap.Release()
	ids := make([]uint32, 0, totalRows-src.ds.Len())
	for id := src.ds.Len(); id < totalRows; id++ {
		ids = append(ids, uint32(id))
	}
	rows, err := snap.FetchRows(ctx, ids)
	if err != nil {
		return 0, err
	}
	if len(rows) != len(ids) {
		return 0, fmt.Errorf("reopened store returned %d of %d appended rows", len(rows), len(ids))
	}
	for _, r := range rows {
		want := src.row(int(r.ID))
		for d := range want {
			if r.Vals[d] != want[d] {
				return 0, fmt.Errorf("appended row %d reads back differently", r.ID)
			}
		}
	}
	return reopen, nil
}
