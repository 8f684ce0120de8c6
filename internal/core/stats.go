package core

import (
	"fmt"

	"specdb/internal/sim"
)

// Stats counts the Speculator's activity across a session. Every field is
// also an engine-wide counter, spec.<name> in the metrics registry (see
// statTable), summed over every speculator of the engine.
type Stats struct {
	Issued    int
	Completed int
	// CanceledInvalidated were canceled because the partial query changed;
	// CanceledAtGo were still running when the final query arrived.
	CanceledInvalidated int
	CanceledAtGo        int
	// WaitedAtGo counts final queries delayed until an almost-finished
	// manipulation completed (the WaitForCompletion extension).
	WaitedAtGo int
	// Suspended counts issue opportunities skipped because the server was
	// busy (the SuspendWhenBusy extension).
	Suspended int
	// Deferred counts extra-job candidates (beyond the first outstanding
	// manipulation) the scheduler declined for lack of a worker slot or
	// buffer-pool headroom. Always 0 with Workers <= 1.
	Deferred int
	// MaterializationsIssued counts issued materializations and
	// MaterializationTime is the cumulative sum of their durations; the
	// harness divides the sum by the count to report the per-dataset-size
	// average materialization duration of the paper.
	MaterializationsIssued int
	MaterializationTime    sim.Duration
	// GarbageCollected counts completed materializations dropped because
	// the partial query stopped containing them.
	GarbageCollected int
	// CanceledOnClose counts jobs canceled by CancelOutstanding or Shutdown
	// (session teardown) rather than by an interface event.
	CanceledOnClose int
	// Failure containment (DESIGN.md §8). Failed counts contained
	// manipulation failures (issue- or completion-time); Aborted counts
	// issued jobs rolled back after a failed completion (a terminal state).
	// Abandoned counts manipulation keys given up after MaxManipAttempts
	// failures. UndoFailures counts best-effort rollbacks of a job's hidden
	// side effects that failed (garbage left behind, never corruption).
	// BreakerTrips/BreakerResumes count this session's circuit breaker
	// opening and closing again.
	Failed         int
	Aborted        int
	Abandoned      int
	UndoFailures   int
	BreakerTrips   int
	BreakerResumes int
	// Cross-session CSE (DESIGN.md §11). SharedBuilds counts materializations
	// this speculator built into the shared registry; SharedAttached counts
	// ready shared builds adopted instead of rebuilt; DedupSaved is the build
	// time those adoptions avoided. BudgetDeferred counts candidates skipped
	// because the per-session page budget (Config.BudgetPages) was exhausted.
	// All zero with Config.CSE == nil and Config.BudgetPages == 0.
	SharedBuilds   int
	SharedAttached int
	DedupSaved     sim.Duration
	BudgetDeferred int
	// Overload governance (DESIGN.md §13). Shed counts outstanding builds
	// the governor canceled under pool pressure, lowest benefit first;
	// DeadlineAborts counts builds the stuck-job watchdog aborted past
	// k× their cost estimate. Both are terminal states.
	// ShedRetained counts COMPLETED materializations dropped under pressure
	// before any query consumed them; those builds already counted as
	// Completed, so ShedRetained is not a terminal state.
	// GovernorDeferred counts issue opportunities the governor refused by
	// pressure band. All zero with Config.Governor == nil.
	Shed             int
	ShedRetained     int
	DeadlineAborts   int
	GovernorDeferred int
	// Whole-query prediction (DESIGN.md §14). PredictedIssued counts
	// predicted-final jobs issued; PredictedCompleted the ones whose answers
	// reached the cache; PredictedCanceled every predicted job that reached
	// any other terminal state.
	// PredictedGos counts GO events answered instantly from a completed
	// prediction (after the result-equivalence check); InstantSaved is the
	// reference execution time those instant answers avoided.
	// PredictEquivFailures counts completed predictions whose rows did NOT
	// match the reference plan's (the fresh answer is served instead).
	// AnswerCacheHits counts predicted jobs satisfied from the answer cache
	// at issue time instead of executing. All zero with Config.Predictor nil.
	PredictedIssued      int
	PredictedCompleted   int
	PredictedCanceled    int
	PredictedGos         int
	InstantSaved         sim.Duration
	PredictEquivFailures int
	AnswerCacheHits      int
	// Hits counts final queries whose plan used at least one completed
	// speculative materialization; Misses counts the rest. Hits+Misses is
	// the number of GO events answered.
	Hits   int
	Misses int
	// Waste is simulated manipulation time that never served a query: the
	// elapsed run time of canceled jobs plus the full cost of completed
	// materializations that were garbage-collected unused.
	Waste sim.Duration
}

// stat names one counted fact: a Stats field and its spec.<name> counter.
type stat int

const (
	statIssued stat = iota
	statCompleted
	statCanceledInvalidated
	statCanceledAtGo
	statWaitedAtGo
	statSuspended
	statDeferred
	statMaterializationsIssued
	statMaterializationTime
	statGarbageCollected
	statCanceledOnClose
	statFailed
	statAborted
	statAbandoned
	statUndoFailures
	statBreakerTrips
	statBreakerResumes
	statSharedBuilds
	statSharedAttached
	statDedupSaved
	statBudgetDeferred
	statShed
	statShedRetained
	statDeadlineAborts
	statGovernorDeferred
	statPredictedIssued
	statPredictedCompleted
	statPredictedCanceled
	statPredictedGos
	statInstantSaved
	statPredictEquivFailures
	statAnswerCacheHits
	statHits
	statMisses
	statWaste
	numStats
)

// statTable is the one name table of counted facts: each stat's counter name
// (without the "spec." prefix) and its Stats field, a count (n) or a
// duration in nanoseconds (d).
var statTable = [numStats]struct {
	name string
	n    func(*Stats) *int
	d    func(*Stats) *sim.Duration
}{
	statIssued:                 {name: "issued", n: func(s *Stats) *int { return &s.Issued }},
	statCompleted:              {name: "completed", n: func(s *Stats) *int { return &s.Completed }},
	statCanceledInvalidated:    {name: "canceled_invalidated", n: func(s *Stats) *int { return &s.CanceledInvalidated }},
	statCanceledAtGo:           {name: "canceled_at_go", n: func(s *Stats) *int { return &s.CanceledAtGo }},
	statWaitedAtGo:             {name: "waited_at_go", n: func(s *Stats) *int { return &s.WaitedAtGo }},
	statSuspended:              {name: "suspended", n: func(s *Stats) *int { return &s.Suspended }},
	statDeferred:               {name: "deferred", n: func(s *Stats) *int { return &s.Deferred }},
	statMaterializationsIssued: {name: "materializations_issued", n: func(s *Stats) *int { return &s.MaterializationsIssued }},
	statMaterializationTime:    {name: "materialization_time_ns", d: func(s *Stats) *sim.Duration { return &s.MaterializationTime }},
	statGarbageCollected:       {name: "garbage_collected", n: func(s *Stats) *int { return &s.GarbageCollected }},
	statCanceledOnClose:        {name: "canceled_on_close", n: func(s *Stats) *int { return &s.CanceledOnClose }},
	statFailed:                 {name: "failed", n: func(s *Stats) *int { return &s.Failed }},
	statAborted:                {name: "aborted", n: func(s *Stats) *int { return &s.Aborted }},
	statAbandoned:              {name: "abandoned", n: func(s *Stats) *int { return &s.Abandoned }},
	statUndoFailures:           {name: "undo_failures", n: func(s *Stats) *int { return &s.UndoFailures }},
	statBreakerTrips:           {name: "breaker_trips", n: func(s *Stats) *int { return &s.BreakerTrips }},
	statBreakerResumes:         {name: "breaker_resumes", n: func(s *Stats) *int { return &s.BreakerResumes }},
	statSharedBuilds:           {name: "shared_builds", n: func(s *Stats) *int { return &s.SharedBuilds }},
	statSharedAttached:         {name: "shared_attached", n: func(s *Stats) *int { return &s.SharedAttached }},
	statDedupSaved:             {name: "dedup_saved_ns", d: func(s *Stats) *sim.Duration { return &s.DedupSaved }},
	statBudgetDeferred:         {name: "budget_deferred", n: func(s *Stats) *int { return &s.BudgetDeferred }},
	statShed:                   {name: "shed", n: func(s *Stats) *int { return &s.Shed }},
	statShedRetained:           {name: "shed_retained", n: func(s *Stats) *int { return &s.ShedRetained }},
	statDeadlineAborts:         {name: "deadline_aborts", n: func(s *Stats) *int { return &s.DeadlineAborts }},
	statGovernorDeferred:       {name: "governor_deferred", n: func(s *Stats) *int { return &s.GovernorDeferred }},
	statPredictedIssued:        {name: "predicted_issued", n: func(s *Stats) *int { return &s.PredictedIssued }},
	statPredictedCompleted:     {name: "predicted_completed", n: func(s *Stats) *int { return &s.PredictedCompleted }},
	statPredictedCanceled:      {name: "predicted_canceled", n: func(s *Stats) *int { return &s.PredictedCanceled }},
	statPredictedGos:           {name: "predicted_gos", n: func(s *Stats) *int { return &s.PredictedGos }},
	statInstantSaved:           {name: "instant_saved_ns", d: func(s *Stats) *sim.Duration { return &s.InstantSaved }},
	statPredictEquivFailures:   {name: "predict_equiv_failures", n: func(s *Stats) *int { return &s.PredictEquivFailures }},
	statAnswerCacheHits:        {name: "answer_cache_hits", n: func(s *Stats) *int { return &s.AnswerCacheHits }},
	statHits:                   {name: "hits", n: func(s *Stats) *int { return &s.Hits }},
	statMisses:                 {name: "misses", n: func(s *Stats) *int { return &s.Misses }},
	statWaste:                  {name: "waste_ns", d: func(s *Stats) *sim.Duration { return &s.Waste }},
}

func (s *Stats) add(k stat, v int64) {
	e := statTable[k]
	if e.d != nil {
		*e.d(s) += sim.Duration(v)
		return
	}
	*e.n(s) += int(v)
}

func (s Stats) get(k stat) int64 {
	e := statTable[k]
	if e.d != nil {
		return int64(*e.d(&s))
	}
	return int64(*e.n(&s))
}

// Add sums every field of o into s.
func (s *Stats) Add(o Stats) {
	for k := stat(0); k < numStats; k++ {
		s.add(k, o.get(k))
	}
}

// Counters reports every field under its engine-wide counter name, without
// the "spec." prefix; durations are in nanoseconds.
func (s Stats) Counters() map[string]int64 {
	out := make(map[string]int64, numStats)
	for k := stat(0); k < numStats; k++ {
		out[statTable[k].name] = s.get(k)
	}
	return out
}

// CheckQuiesced verifies the lifecycle identities of a speculator with no
// job outstanding (after Shutdown or CancelOutstanding): every issued job
// reached exactly one terminal state, and every predicted job either
// completed or was canceled.
func (s Stats) CheckQuiesced() error {
	terminal := s.Completed + s.CanceledInvalidated + s.CanceledAtGo + s.CanceledOnClose +
		s.Aborted + s.Shed + s.DeadlineAborts
	if s.Issued != terminal {
		return fmt.Errorf("core: issued %d != %d terminal (completed %d + invalidated %d + at GO %d + on close %d + aborted %d + shed %d + deadline %d)",
			s.Issued, terminal, s.Completed, s.CanceledInvalidated, s.CanceledAtGo, s.CanceledOnClose,
			s.Aborted, s.Shed, s.DeadlineAborts)
	}
	if s.PredictedIssued != s.PredictedCompleted+s.PredictedCanceled {
		return fmt.Errorf("core: predicted issued %d != completed %d + canceled %d",
			s.PredictedIssued, s.PredictedCompleted, s.PredictedCanceled)
	}
	return nil
}
