package ide

import (
	"github.com/uei-db/uei/internal/oracle"
)

// Labeler answers label solicitations — the "user" of Algorithm 1. The
// experiments use OracleLabeler (the §4.1 simulation); cmd/uei-explore
// implements it with a human at a terminal.
type Labeler interface {
	// Label answers one solicitation for the tuple (id, row).
	Label(id uint32, row []float64) oracle.Label
	// Count returns how many labels have been solicited so far.
	Count() int
}

// PositiveSeeder is implemented by labelers that can bootstrap the session
// with one relevant example (Config.SeedWithPositive).
type PositiveSeeder interface {
	// IsRelevant answers ground-truth membership of the tuple (id, row)
	// without counting as a solicited label; the engine uses it to find an
	// in-pool seed.
	IsRelevant(id uint32, row []float64) bool
	// SeedPositive returns one relevant example (id and owned row copy)
	// when no in-pool candidate is relevant, modeling "the user brings an
	// example". ok is false when no relevant tuple exists at all; err
	// reports that the labeler could not look.
	SeedPositive() (id uint32, row []float64, ok bool, err error)
}

// MultiPositiveSeeder is implemented by labelers that can provide several
// relevant examples — one per component of a disjunctive (multi-region)
// interest — for Config.SeedCount > 1.
type MultiPositiveSeeder interface {
	PositiveSeeder
	// SeedPositives returns up to n distinct relevant examples, spread
	// across the target's components where possible.
	SeedPositives(n int) (ids []uint32, rows [][]float64, err error)
}

// ExternalLabeler adapts labels that arrive from outside the process — an
// HTTP client, a UI — to the Labeler interface. The engine never blocks on
// it: Session.Feed stages the answer and resolves the outstanding proposal
// within the same call, so a session driven this way is fully passive
// between requests.
type ExternalLabeler struct {
	n      int
	staged oracle.Label
	armed  bool
}

// Label implements Labeler by returning the answer staged by Session.Feed.
// Calling it without a staged answer (e.g. driving Session.Resolve or Run
// directly over an ExternalLabeler) is a programming error.
func (l *ExternalLabeler) Label(uint32, []float64) oracle.Label {
	if !l.armed {
		panic("ide: ExternalLabeler.Label without a staged answer; drive the session with Feed")
	}
	l.armed = false
	l.n++
	return l.staged
}

// Count implements Labeler.
func (l *ExternalLabeler) Count() int { return l.n }

// stage arms the labeler with the next answer; only Session.Feed calls it.
func (l *ExternalLabeler) stage(label oracle.Label) {
	l.staged = label
	l.armed = true
}

// DriftingOracleLabeler adapts the drifting-interest user simulation: the
// target region moves as labels are given (oracle.DriftingOracle), so the
// same tuple can be judged differently early and late in a session.
// Seeding uses the initial region — the example the user showed when the
// session began.
type DriftingOracleLabeler struct {
	O *oracle.DriftingOracle
}

// Label implements Labeler against the region at the current label count.
func (l DriftingOracleLabeler) Label(_ uint32, row []float64) oracle.Label {
	return l.O.LabelPoint(row)
}

// Count implements Labeler.
func (l DriftingOracleLabeler) Count() int { return l.O.LabelsGiven() }

// IsRelevant implements PositiveSeeder against the initial region.
func (l DriftingOracleLabeler) IsRelevant(_ uint32, row []float64) bool {
	return l.O.RelevantPoint(row)
}

// SeedPositive implements PositiveSeeder.
func (l DriftingOracleLabeler) SeedPositive() (uint32, []float64, bool, error) {
	id, row, ok, err := l.O.SeedRelevant()
	return uint32(id), row, ok, err
}

// OracleLabeler adapts the §4.1 user simulation to the Labeler interface.
type OracleLabeler struct {
	O *oracle.Oracle
}

// Label implements Labeler by the target's range query on the row.
func (l OracleLabeler) Label(_ uint32, row []float64) oracle.Label {
	return l.O.LabelPoint(row)
}

// Count implements Labeler.
func (l OracleLabeler) Count() int { return l.O.LabelsGiven() }

// IsRelevant implements PositiveSeeder by the target's range query on the
// row.
func (l OracleLabeler) IsRelevant(_ uint32, row []float64) bool { return l.O.RelevantPoint(row) }

// SeedPositive implements PositiveSeeder.
func (l OracleLabeler) SeedPositive() (uint32, []float64, bool, error) {
	id, row, ok, err := l.O.SeedRelevant()
	return uint32(id), row, ok, err
}

// SeedPositives implements MultiPositiveSeeder: the lowest-id relevant
// tuple of each target region in turn, until n seeds are collected or the
// regions are exhausted.
func (l OracleLabeler) SeedPositives(n int) ([]uint32, [][]float64, error) {
	var ids []uint32
	var rows [][]float64
	seen := make(map[uint32]bool)
	// One sweep: a second would re-yield the same lowest-id tuples.
	for _, r := range l.O.Targets().Regions {
		if len(ids) >= n {
			break
		}
		id, row, ok, err := l.O.SeedRelevantIn(r)
		if err != nil {
			return nil, nil, err
		}
		if !ok || seen[uint32(id)] {
			continue
		}
		seen[uint32(id)] = true
		ids = append(ids, uint32(id))
		rows = append(rows, row)
	}
	return ids, rows, nil
}
