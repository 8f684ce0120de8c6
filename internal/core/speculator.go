package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/stats"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// Config tunes one Speculator instance.
type Config struct {
	// Forced selects query-rewriting semantics (completed materializations
	// MUST be used by the final query) versus query-materialization (they
	// are an option for the optimizer). The paper's evaluation uses
	// rewriting (Section 4.2).
	Forced bool
	// Ops selects the manipulation families (default: materialize only,
	// matching the paper's evaluation).
	Ops OpSet
	// SelectionsOnly restricts enumeration to selection materializations —
	// the modified multi-user strategy of Section 6.3.
	SelectionsOnly bool
	// Lookahead is the cost model's future-query depth n (Section 3.3).
	Lookahead int
	// UseCompletionRisk weighs benefits by the probability of completing
	// before GO.
	UseCompletionRisk bool
	// MinCompletionProb skips manipulations too unlikely to finish in time
	// (see CostModel.MinCompletionProb).
	MinCompletionProb float64
	// MinBenefit is the issuing threshold: manipulations whose expected
	// saving is below it are not worth the risk.
	MinBenefit sim.Duration
	// RiskAversion is the cost model's conservatism against P1/P2
	// approximation error (see CostModel.RiskAversion).
	RiskAversion float64
	// CompressionThreshold gates materializations on shrinking their
	// inputs (see CostModel.CompressionThreshold).
	CompressionThreshold float64
	// NamePrefix prefixes speculative table names (unique per user in
	// multi-user runs).
	NamePrefix string
	// WaitForCompletion implements the paper's Section 7 proposal: when GO
	// arrives while a manipulation is still running, compare the remaining
	// time to the manipulation's expected benefit and, if waiting is
	// cheaper, delay the final query until the manipulation completes and
	// use its result — instead of the conservative always-cancel default.
	WaitForCompletion bool
	// SuspendWhenBusy, when positive, suspends speculation while at least
	// that many other jobs are active on the server — the paper's Section 7
	// load-aware proposal for multi-user settings. 0 disables suspension.
	SuspendWhenBusy int
	// Workers is the maximum number of manipulations this speculator may
	// have outstanding at once. The default (0 or 1) is the paper's
	// convention of at most one outstanding manipulation; higher values let
	// the speculator fill idle worker slots with the next-best candidates
	// in descending benefit order.
	Workers int
	// Scheduler coordinates worker slots and pool-pressure admission across
	// every speculator of one engine. Nil admits everything (single-session
	// default).
	Scheduler *Scheduler
	// CSE, when non-nil, is the engine-wide shared-build registry
	// (DESIGN.md §11): identical materialization subplans across sessions are
	// built once and refcounted instead of duplicated. Nil (the default)
	// keeps the historical per-session build behavior, decision for decision.
	CSE *SharedBuilds
	// BudgetPages caps this session's retained speculative footprint: the
	// summed EstPages of its outstanding manipulations and completed
	// materializations it still holds. Candidates that would exceed the
	// budget are skipped (Stats.BudgetDeferred). 0 (the default) disables
	// the budget.
	BudgetPages int
	// Governor, when non-nil, is the engine-wide resource-pressure layer
	// (DESIGN.md §13): it gates new issues by pressure band, marks
	// outstanding builds for benefit-ranked shedding, and stamps watchdog
	// deadlines on issued jobs. Nil (the default) keeps every decision
	// byte-identical to the ungoverned engine.
	Governor *Governor
	// Predictor, when non-nil, enables whole-query speculation (DESIGN.md
	// §14): the model's top-k predicted final queries are executed ahead of
	// GO as first-class jobs, and a GO matching a completed prediction is
	// answered in ~zero simulated time after a result-equivalence check
	// against the plan the optimizer would have run. Nil (the default) keeps
	// every decision byte-identical to the prediction-free engine.
	Predictor *Predictor
	// Answers is the shared answer cache completed predicted finals publish
	// into. Nil with a Predictor set makes NewSpeculator create a private
	// cache; share one across sessions (specdb does) so repeated replays of
	// the same trace reuse each other's answers.
	Answers *AnswerCache

	// Failure containment (DESIGN.md §8). Speculation is best-effort: a
	// failed manipulation must never fail the session. MaxManipAttempts
	// bounds how often one manipulation (by key) may fail — at issue or at
	// completion — before it is abandoned for the rest of the session
	// (default 3). RetryBackoff is the sim-time pause after a failure before
	// the speculator issues anything again, doubling per consecutive failure
	// of the same manipulation up to 8x (default 2s).
	MaxManipAttempts int
	RetryBackoff     sim.Duration
	// BreakerFailures consecutive failures trip the per-session circuit
	// breaker: speculation suspends entirely, then after BreakerCooldown of
	// sim time one half-open probe decides whether it resumes. Defaults 3
	// and 30s.
	BreakerFailures int
	BreakerCooldown sim.Duration
}

// DefaultConfig is the paper's main experimental configuration.
func DefaultConfig() Config {
	return Config{
		Forced:               true,
		Ops:                  OpsMaterializeOnly(),
		Lookahead:            3,
		UseCompletionRisk:    true,
		MinCompletionProb:    0.15,
		MinBenefit:           200 * time.Millisecond,
		RiskAversion:         0.35,
		CompressionThreshold: 0.65,
		NamePrefix:           "spec",
	}
}

// Job is one asynchronous manipulation in flight. The engine executed it
// eagerly (side effects hidden); CompleteDue finalizes it once the owner's
// clock reaches CompletesAt, unless an event terminates it beforehand.
type Job struct {
	Manip       Manipulation
	IssuedAt    sim.Time
	CompletesAt sim.Time
	// Deadline is the stuck-job watchdog's abort instant (governor's
	// DeadlineFactor × the manipulation's cost estimate past IssuedAt);
	// zero means no deadline (no governor installed).
	Deadline sim.Time

	// Hidden side effects, finalized by Complete or undone by Cancel.
	tableName string
	index     *catalog.Index
	histogram *stats.Histogram

	// jobID is the engine contention-model registration, held from issue
	// until completion or cancellation.
	jobID int64

	// cseKey is the shared-build registry claim this job holds ("" when the
	// job is not a shared build): the manipulation graph's canonical CSEKey.
	// Cancel/abort withdraw the claim; Complete marks the build ready.
	cseKey string

	// Predicted-final payload (ManipPredictFinal only): the answer produced
	// at issue time — fresh execution or answer-cache hit — published to the
	// cache at completion and served instantly if GO matches. predVersions
	// snapshots the base relations' data versions when the rows were computed,
	// so an intervening write invalidates the published entry.
	formKey      string
	predRows     []tuple.Row
	predSchema   *tuple.Schema
	predCost     sim.Duration
	predVersions map[string]uint64
	fromCache    bool

	// span traces the issue→completion/cancellation window.
	span *obs.ActiveSpan
}

// EventOutcome reports what an interface event made the Speculator do.
type EventOutcome struct {
	// Canceled are the jobs this event took off the speculator's plate —
	// invalidated, canceled at GO, or completed-early by the
	// wait-for-completion rule. With Workers <= 1 it holds at most one job.
	Canceled []*Job
	// Issued are the newly issued jobs. With Workers <= 1 it holds at most
	// one.
	Issued []*Job
	// Waited is the real delay before the final query ran because OnGo let
	// an almost-finished manipulation complete (WaitForCompletion). The
	// session owner must advance its clock by this much in addition to the
	// query duration.
	Waited sim.Duration
}

// Speculator is the central component of the speculation subsystem
// (Figure 3): it tracks the partial query, asks the Cost Model to price the
// Manipulation Space, issues the best manipulations asynchronously in
// descending benefit order, enforces the paper's conventions (cancel on
// invalidation and at GO; garbage-collect results the partial query no
// longer indicates useful; at most Workers outstanding manipulations — one
// by default), and answers final queries on the prepared database.
type Speculator struct {
	eng     *engine.Engine
	learner *Learner
	cm      *CostModel
	cfg     Config
	sched   *Scheduler

	partial *qgraph.Graph
	projs   []string

	formStart   sim.Time
	formStarted bool
	seenSels    map[string]qgraph.Selection
	seenJoins   map[string]qgraph.Join
	prevFinal   *qgraph.Graph

	// outstanding holds the in-flight jobs in issue order (descending
	// benefit at issue time); at most cfg.Workers entries.
	outstanding []*Job
	// completed materializations by graph key → speculative table name.
	completed map[string]string
	// completedCost remembers each completed materialization's build cost by
	// graph key, so garbage collection can charge it to Stats.Waste.
	completedCost map[string]sim.Duration
	// stagedRels tracks data-staging results for garbage collection.
	stagedRels map[string]bool

	// Cross-session CSE state (nil/empty when cfg.CSE is nil). sharedKeys
	// marks graph keys in completed that are refcounted registry builds;
	// sharedOwned marks the subset this speculator materialized itself (the
	// rest were adopted from other sessions).
	cse         *SharedBuilds
	sharedKeys  map[string]bool
	sharedOwned map[string]bool
	// retainedPages is the summed EstPages of outstanding jobs plus held
	// completed materializations — the footprint Config.BudgetPages caps.
	// completedPages remembers each held materialization's contribution.
	retainedPages  int
	completedPages map[string]int

	// wasteCharges ledgers every Stats.Waste charge by build identity (the
	// speculative table name for materializations, key@issue-instant
	// otherwise). Each executed build may be charged at most once — the
	// invariant TestWasteChargedOncePerBuild enforces.
	wasteCharges map[string]int

	// Failure containment state (DESIGN.md §8): per-key consecutive failure
	// counts, keys abandoned after MaxManipAttempts, the sim-time before
	// which nothing new is issued (backoff), and the per-session circuit
	// breaker. All empty/zero on the fault-free path, where they change
	// nothing.
	attempts  map[string]int
	abandoned map[string]bool
	retryAt   sim.Time
	breaker   *fault.Breaker

	// Overload governance (DESIGN.md §13): the engine-wide governor and this
	// session's registration id. Both zero without cfg.Governor, where every
	// governance hook is a nil-safe no-op.
	gov   *Governor
	govID int

	// Whole-query prediction state (DESIGN.md §14); all nil without
	// cfg.Predictor, where every prediction hook is a nil-safe no-op.
	// predStates accumulates the canvas states (partial graph keys) the
	// current formulation passed through, in order, for predictor training at
	// GO. predictedReady marks form keys whose predicted job completed this
	// session AND whose cache entry this session holds a reference on; a GO
	// matching one is served instantly after the equivalence check.
	pred           *Predictor
	answers        *AnswerCache
	predStates     []string
	predictedReady map[string]bool

	stats Stats
	// counters mirrors stats into the engine's metrics registry: one
	// spec.<name> counter per stat, shared by every speculator on the engine.
	counters [numStats]*obs.Counter
}

// NewSpeculator attaches a speculation subsystem to an engine.
func NewSpeculator(eng *engine.Engine, learner *Learner, cfg Config) *Speculator {
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "spec"
	}
	if cfg.MaxManipAttempts <= 0 {
		cfg.MaxManipAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	breaker := fault.NewBreaker(fault.BreakerConfig{
		Failures: cfg.BreakerFailures,
		Cooldown: cfg.BreakerCooldown,
	})
	breaker.AttachMetrics(eng.Metrics())
	govID := 0
	if cfg.Governor != nil {
		govID = cfg.Governor.Register()
	}
	if cfg.Predictor != nil && cfg.Answers == nil {
		// Whole-query speculation needs somewhere to publish completed
		// answers; an unshared private cache still serves this session's own
		// repeated finals.
		cfg.Answers = NewAnswerCache(eng.Metrics(), 0)
	}
	sp := &Speculator{
		eng:     eng,
		sched:   cfg.Scheduler,
		gov:     cfg.Governor,
		govID:   govID,
		learner: learner,
		cm: &CostModel{
			Eng:                  eng,
			Learner:              learner,
			Lookahead:            cfg.Lookahead,
			UseCompletionRisk:    cfg.UseCompletionRisk,
			MinCompletionProb:    cfg.MinCompletionProb,
			RiskAversion:         cfg.RiskAversion,
			CompressionThreshold: cfg.CompressionThreshold,
		},
		cfg:            cfg,
		cse:            cfg.CSE,
		partial:        qgraph.New(),
		seenSels:       make(map[string]qgraph.Selection),
		seenJoins:      make(map[string]qgraph.Join),
		completed:      make(map[string]string),
		completedCost:  make(map[string]sim.Duration),
		stagedRels:     make(map[string]bool),
		sharedKeys:     make(map[string]bool),
		sharedOwned:    make(map[string]bool),
		completedPages: make(map[string]int),
		wasteCharges:   make(map[string]int),
		attempts:       make(map[string]int),
		abandoned:      make(map[string]bool),
		breaker:        breaker,
		pred:           cfg.Predictor,
		answers:        cfg.Answers,
		predictedReady: make(map[string]bool),
	}
	for k := range sp.counters {
		sp.counters[k] = eng.Metrics().Counter("spec." + statTable[k].name)
	}
	return sp
}

// Breaker exposes the per-session circuit breaker (for tests/diagnostics).
func (sp *Speculator) Breaker() *fault.Breaker { return sp.breaker }

// count adds n to stat k: its Stats field and its engine-wide counter move
// together, so each spec.<name> counter is the sum of its field over the
// engine's speculators.
func (sp *Speculator) count(k stat, n int64) {
	sp.stats.add(k, n)
	sp.counters[k].Add(n)
}

// chargeWaste charges d of never-useful manipulation time to Stats.Waste.
// buildID identifies the executed build being charged — the speculative table
// name for materializations, key@issue-instant for the rest — and feeds the
// per-build ledger behind WasteCharges: a single execution's cost must hit
// Waste at most once, however it terminates (canceled, aborted, or
// garbage-collected unused).
func (sp *Speculator) chargeWaste(buildID string, d sim.Duration) {
	sp.count(statWaste, int64(d))
	sp.wasteCharges[buildID]++
}

// wasteBuildID names a job's execution for the waste ledger.
func wasteBuildID(job *Job) string {
	if job.tableName != "" {
		return job.tableName
	}
	return fmt.Sprintf("%s@%d", job.Manip.Key(), int64(job.IssuedAt))
}

// WasteCharges exposes the per-build waste ledger (build identity → number of
// charges) for the charged-once invariant test. The returned map is a copy.
func (sp *Speculator) WasteCharges() map[string]int {
	out := make(map[string]int, len(sp.wasteCharges))
	for k, v := range sp.wasteCharges {
		out[k] = v
	}
	return out
}

// Stats reports session counters.
func (sp *Speculator) Stats() Stats { return sp.stats }

// Partial exposes the tracked partial query (for tests and diagnostics).
func (sp *Speculator) Partial() *qgraph.Graph { return sp.partial }

// Outstanding exposes the in-flight jobs in issue order. The returned slice
// must not be mutated.
func (sp *Speculator) Outstanding() []*Job { return sp.outstanding }

// Learner exposes the user profile.
func (sp *Speculator) Learner() *Learner { return sp.learner }

// OnEvent processes one non-GO interface event at simulated time now. It
// updates the partial query, cancels an invalidated outstanding job, garbage-
// collects stale materializations, and — if the slot is free — issues the
// best-scoring manipulation.
func (sp *Speculator) OnEvent(ev trace.Event, now sim.Time) (EventOutcome, error) {
	var out EventOutcome
	if ev.Kind == trace.EvGo {
		return out, fmt.Errorf("core: GO events go to OnGo")
	}
	if !sp.formStarted {
		sp.formStarted = true
		sp.formStart = now
	}
	if err := sp.apply(ev); err != nil {
		return out, err
	}
	if sp.pred != nil {
		// Record the canvas state for predictor training at GO. A cleared
		// canvas abandons the formulation: its states must not credit the
		// NEXT final query.
		if ev.Kind == trace.EvClear {
			sp.predStates = nil
		} else if !sp.partial.IsEmpty() {
			sp.predStates = append(sp.predStates, sp.partial.Key())
		}
	}

	// Convention 1: cancel manipulations whose benefit disappeared.
	out.Canceled = sp.terminateWhere(now, outcomeInvalidated, func(job *Job) bool { return !sp.stillUseful(job.Manip) })
	// Convention 2: garbage-collect completed results the partial query no
	// longer indicates useful.
	if err := sp.collectGarbage(); err != nil {
		return out, err
	}
	// Overload governance (DESIGN.md §13): abort builds past their watchdog
	// deadline and shed the governor's benefit-ranked marks — in-flight and
	// retained alike. Runs after the conventions (an invalidated job is
	// already gone — no point shedding it) and before fillSlots (freed
	// footprint may lift the pressure band that gates new issues). Nil-safe
	// no-op without a governor.
	shedBefore := sp.stats.ShedRetained
	degraded, err := sp.governDegrade(now)
	if err != nil {
		return out, err
	}
	out.Canceled = append(out.Canceled, degraded...)
	// Convention 3: at most cfg.Workers outstanding manipulations (one, per
	// the paper, unless configured wider). A session the governor just
	// degraded sits this boundary out — re-issuing the build it was told to
	// drop would turn shedding into thrash.
	if len(degraded) > 0 || sp.stats.ShedRetained > shedBefore {
		return out, nil
	}
	issued, err := sp.fillSlots(now)
	if err != nil {
		return out, err
	}
	out.Issued = issued
	return out, nil
}

// Complete finalizes a job at its completion time, making its results
// visible to the optimizer, and — a slot now being free — may issue the
// next manipulations for the current partial query. Speculation is
// best-effort: a finalization failure is contained (the job's hidden side
// effects are rolled back, the failure recorded against its key and the
// breaker), never surfaced to the session.
func (sp *Speculator) Complete(job *Job, now sim.Time) ([]*Job, error) {
	if !slices.Contains(sp.outstanding, job) {
		// Programmer invariant (each issued job completes at most once), not
		// a containable I/O failure.
		return nil, fmt.Errorf("core: completing a job that is not outstanding")
	}
	if err := sp.finalize(job); err != nil {
		sp.terminate(job, now, outcomeAborted, err)
	} else {
		sp.terminate(job, now, outcomeCompleted, nil)
	}
	// Keep preparing: a slot is free and the user is still thinking (or
	// viewing results — either way the canvas indicates what comes next).
	return sp.fillSlots(now)
}

// CompleteDue completes every outstanding job due by t in completion order
// (issue order on ties), including follow-ups those completions issue that
// fall due by t as well. The outstanding list is the whole completion
// schedule: owners call CompleteDue as their clock advances rather than
// keeping one of their own.
func (sp *Speculator) CompleteDue(t sim.Time) error {
	for {
		var due *Job
		for _, job := range sp.outstanding {
			if job.CompletesAt <= t && (due == nil || job.CompletesAt < due.CompletesAt) {
				due = job
			}
		}
		if due == nil {
			return nil
		}
		if _, err := sp.Complete(due, due.CompletesAt); err != nil {
			return err
		}
	}
}

// fillSlots issues manipulations in descending benefit order until the
// outstanding cap is reached, the scheduler defers, or no candidate clears
// the threshold. With Workers=1 it is exactly one maybeIssue call on an
// empty slot — the paper's single-manipulation convention.
func (sp *Speculator) fillSlots(now sim.Time) ([]*Job, error) {
	var issued []*Job
	for len(sp.outstanding) < sp.cfg.Workers {
		// Predicted finals first (DESIGN.md §14): a confident whole-query
		// prediction dominates any sub-query manipulation — it answers GO
		// outright. An immediate nil without a predictor keeps this loop
		// byte-identical to history.
		job, err := sp.maybeIssuePredicted(now)
		if err != nil {
			return issued, err
		}
		if job == nil {
			job, err = sp.maybeIssue(now)
			if err != nil {
				return issued, err
			}
		}
		if job == nil {
			break
		}
		issued = append(issued, job)
	}
	return issued, nil
}

// governDegrade applies the engine governor's overload decisions at one
// event boundary (DESIGN.md §13) and returns the jobs it took off the plate.
// Two passes: first the
// stuck-job watchdog aborts builds past their deadline (DeadlineExceeded —
// a systemic-health strike on the GLOBAL breaker, not the session breaker:
// an overrunning build is usually a victim of engine-wide pressure, and
// tripping the session breaker would double-punish the victim); then the
// governor's benefit-ranked shed marks are canceled. Shed and deadline
// aborts cancel exactly like any other cancellation — side effects undone,
// shared-build claims withdrawn at refcount-drop, elapsed run time charged
// once through the waste ledger.
func (sp *Speculator) governDegrade(now sim.Time) ([]*Job, error) {
	if sp.gov == nil {
		return nil, nil
	}
	dropped := sp.terminateWhere(now, outcomeDeadline, func(job *Job) bool {
		return job.Deadline != 0 && now >= job.Deadline
	})
	// Push the session's live footprint before asking for shed marks, so the
	// governor ranks against current state, not last event's.
	sp.gov.ReportRetained(sp.govID, sp.retainedPages)
	shed := sp.gov.ShedSet(sp.govID, now)
	if len(shed) > 0 {
		dropped = append(dropped, sp.terminateWhere(now, outcomeShed, func(job *Job) bool { return shed[job.Manip.Key()] })...)
		// Retained tier: drop completed materializations the governor marked,
		// exactly like garbage collection (shared builds release their
		// refcount and the cost of a never-consumed build is charged once),
		// but counted as ShedRetained — the pressure took them, not the
		// conventions.
		for _, gk := range sortedKeys(sp.completed) {
			if !shed["mat|"+gk] {
				continue
			}
			var err error
			if sp.sharedKeys[gk] {
				err = sp.releaseShared(gk, true)
			} else {
				err = sp.dropPrivate(gk)
			}
			if err != nil {
				return dropped, err
			}
			sp.count(statShedRetained, 1)
		}
		sp.gov.ReportRetained(sp.govID, sp.retainedPages)
	}
	return dropped, nil
}

// finalize publishes a job's hidden side effects.
func (sp *Speculator) finalize(job *Job) error {
	switch job.Manip.Kind {
	case ManipMaterialize:
		if err := sp.eng.Catalog.RegisterView(job.tableName, job.Manip.Graph, sp.cfg.Forced); err != nil {
			return err
		}
		sp.completed[job.Manip.Graph.Key()] = job.tableName
	case ManipIndex:
		t, err := sp.eng.Catalog.Table(job.Manip.Rel)
		if err != nil {
			return err
		}
		t.SetIndex(job.Manip.Col, job.index)
	case ManipHistogram:
		t, err := sp.eng.Catalog.Table(job.Manip.Rel)
		if err != nil {
			return err
		}
		if cs := t.ColumnStats(job.Manip.Col); cs != nil {
			cs.SetHist(job.histogram)
		}
	case ManipStage:
		sp.stagedRels[job.Manip.Rel] = true
	case ManipPredictFinal:
		// Publish the predicted answer (DESIGN.md §14). A fresh build enters
		// the cache under its issue-time version snapshot, holding the
		// producer's reference; a cache-path job re-references the entry it was
		// satisfied from (which a concurrent write may have invalidated since —
		// then the prediction quietly yields nothing). Either way the session
		// marks the form ready for an instant GO only while it holds a
		// reference, so the entry cannot be evicted out from under it.
		if job.fromCache {
			if sp.answers.Ref(job.formKey) {
				sp.predictedReady[job.formKey] = true
			}
		} else if sp.answers.Put(job.formKey, job.predRows, job.predSchema, job.predCost, job.Manip.EstPages, job.predVersions) {
			sp.predictedReady[job.formKey] = true
		}
	}
	return nil
}

// noteFailure records one contained manipulation failure: backoff before the
// next issue (doubling per consecutive failure of the same key, capped at
// 8x), abandonment after MaxManipAttempts, and a breaker strike. A span marks
// the failure on the session timeline.
func (sp *Speculator) noteFailure(key string, now sim.Time, cause error) {
	sp.count(statFailed, 1)
	n := sp.attempts[key] + 1
	sp.attempts[key] = n
	backoff := sp.cfg.RetryBackoff
	for i := 1; i < n && i < 4; i++ {
		backoff *= 2
	}
	if t := now.Add(backoff); t > sp.retryAt {
		sp.retryAt = t
	}
	if n >= sp.cfg.MaxManipAttempts && !sp.abandoned[key] {
		sp.abandoned[key] = true
		sp.count(statAbandoned, 1)
	}
	if sp.breaker.Failure(now) {
		sp.count(statBreakerTrips, 1)
	}
	// The same outcome feeds the engine-wide breaker, which trips on the
	// systemic rate across all sessions (nil-safe no-op without a governor).
	sp.gov.NoteFailure(now)
	s := sp.eng.Tracer().Start("manip.failed", now, 0,
		obs.Attr{Key: "key", Value: key},
		obs.Attr{Key: "error", Value: cause.Error()})
	s.End(now)
}

// OnGo handles the final query: any in-flight manipulation is canceled
// (convention: the paper's conservative approach), the final query runs on
// the prepared database (completed materializations rewrite it), and the
// Learner trains on the observed formulation. The canvas still shows the
// query while the user views results, so the Speculator keeps preparing:
// the returned outcome may carry a freshly issued manipulation for the next
// query ("…or even queries further into the future", paper abstract).
func (sp *Speculator) OnGo(now sim.Time) (*engine.Result, EventOutcome, error) {
	var out EventOutcome
	var waited sim.Duration
	// Section 7 extension: a manipulation worth more than its remaining run
	// time is allowed to finish and serve this very query. With several
	// outstanding the earliest-completing qualifying job wins — the user
	// waits for at most one.
	var waitJob *Job
	if sp.cfg.WaitForCompletion {
		for _, job := range sp.outstanding {
			remaining := job.CompletesAt.Sub(now)
			if remaining > 0 && remaining < job.Manip.SingleBenefit &&
				(waitJob == nil || job.CompletesAt < waitJob.CompletesAt) {
				waitJob = job
			}
		}
	}
	out.Canceled = sp.terminateWhere(now, outcomeAtGo, func(job *Job) bool { return job != waitJob })
	if waitJob != nil {
		// Its completion happens here, ahead of its schedule.
		out.Canceled = append(out.Canceled, waitJob)
		next, err := sp.Complete(waitJob, waitJob.CompletesAt)
		if err != nil {
			return nil, out, err
		}
		out.Issued = append(out.Issued, next...)
		waited = waitJob.CompletesAt.Sub(now)
		out.Waited = waited
		sp.count(statWaitedAtGo, 1)
	}
	if sp.partial.IsEmpty() {
		return nil, out, fmt.Errorf("core: GO with empty partial query")
	}
	final := sp.partial.Clone()

	q, err := plan.BindGraphProjections(sp.eng.Catalog, final, sp.projs)
	if err != nil {
		return nil, out, err
	}
	res, err := sp.eng.RunQuery(q)
	if err != nil {
		return nil, out, err
	}
	// Instant GO (DESIGN.md §14): a completed prediction matching this final
	// query serves its cached answer in ~zero simulated time — but only after
	// a full result-equivalence check against the plan the optimizer would
	// have run, which executed above. The reference execution happens either
	// way (so buffer-pool and learner state stay identical with or without the
	// check passing); only the user-visible duration collapses.
	if sp.pred != nil {
		fk := FormKey(final, q.Projections)
		if sp.predictedReady[fk] {
			if rows, _, _, ok := sp.answers.Get(fk, sp.eng.DataVersion); ok {
				if RowsEquivalent(res.Rows, rows) {
					sp.count(statPredictedGos, 1)
					sp.count(statInstantSaved, int64(res.Duration))
					res.Duration = 0
				} else {
					// The cached answer disagrees with the reference plan:
					// serve the fresh result, count the equivalence failure.
					sp.count(statPredictEquivFailures, 1)
				}
			}
		}
	}
	res.Duration += waited // the user waited for the manipulation first
	sp.recordHit(res.Plan)

	// Train the Learner. The survival counters decay exponentially, so the
	// observation order matters — flatten the seen sets in sorted key order,
	// not map order, or the learned estimates (and every downstream benefit
	// score) drift between otherwise identical runs.
	seenSels := make([]qgraph.Selection, 0, len(sp.seenSels))
	for _, key := range sortedKeys(sp.seenSels) {
		seenSels = append(seenSels, sp.seenSels[key])
	}
	seenJoins := make([]qgraph.Join, 0, len(sp.seenJoins))
	for _, key := range sortedKeys(sp.seenJoins) {
		seenJoins = append(seenJoins, sp.seenJoins[key])
	}
	sp.learner.ObserveFormulation(seenSels, seenJoins, final)
	if sp.prevFinal != nil {
		sp.learner.ObserveTransition(sp.prevFinal, final)
	}
	if sp.formStarted {
		sp.learner.ObserveFormulationDuration(now.Sub(sp.formStart).Seconds())
	}
	sp.publishProfile()
	// Train the predictor on the completed formulation: every canvas state it
	// passed through, plus the previous final, predicted THIS final form.
	if sp.pred != nil {
		prevKey := ""
		if sp.prevFinal != nil {
			prevKey = sp.prevFinal.Key()
		}
		sp.pred.ObserveFinal(sp.predStates, prevKey, final, q.Projections)
		sp.predStates = nil
	}
	sp.prevFinal = final
	sp.seenSels = make(map[string]qgraph.Selection)
	sp.seenJoins = make(map[string]qgraph.Join)
	sp.formStarted = false
	// Use the result-viewing pause: prepare for the next query, which will
	// very likely retain most of this one's parts (Section 5 persistence).
	// Any wait for a completing manipulation has already elapsed by this
	// point, so fresh jobs are issued at now+waited — keeping IssuedAt and
	// CompletesAt on the session's actual timeline.
	issued, err := sp.fillSlots(now.Add(waited))
	if err != nil {
		return nil, out, err
	}
	out.Issued = append(out.Issued, issued...)
	return res, out, nil
}

// apply mutates the partial query by one event, recording seen parts.
func (sp *Speculator) apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.EvAddSelection:
		s, err := ev.Sel.ToSelection()
		if err != nil {
			return err
		}
		sp.partial.AddSelection(s)
		sp.seenSels[s.Key()] = s
	case trace.EvRemoveSelection:
		s, err := ev.Sel.ToSelection()
		if err != nil {
			return err
		}
		sp.partial.RemoveSelection(s)
	case trace.EvAddJoin:
		j := ev.Join.ToJoin()
		sp.partial.AddJoin(j)
		sp.seenJoins[j.Key()] = j
	case trace.EvRemoveJoin:
		sp.partial.RemoveJoin(ev.Join.ToJoin())
	case trace.EvAddRelation:
		sp.partial.AddRelation(ev.Rel)
	case trace.EvRemoveRelation:
		sp.partial.RemoveRelation(ev.Rel)
	case trace.EvSetProjections:
		sp.projs = append([]string(nil), ev.Projs...)
	case trace.EvClear:
		sp.partial = qgraph.New()
		sp.projs = nil
		// Clearing the canvas abandons the formulation: parts seen so far
		// must not train the Learner against the NEXT final query, and the
		// think-time model must not span the abandoned task. The next event
		// starts a fresh formulation window.
		sp.seenSels = make(map[string]qgraph.Selection)
		sp.seenJoins = make(map[string]qgraph.Join)
		sp.formStarted = false
		sp.formStart = 0
	default:
		return fmt.Errorf("core: unknown event kind %q", ev.Kind)
	}
	return nil
}

// stillUseful reports whether a manipulation's target is still indicated by
// the partial query.
func (sp *Speculator) stillUseful(m Manipulation) bool {
	switch m.Kind {
	case ManipStage:
		return sp.partial.HasRelation(m.Rel)
	case ManipPredictFinal:
		// Reversed containment: the predicted FINAL must still extend the
		// partial query. An edit that leaves the prediction's query graph
		// falsifies it — the user is headed somewhere else.
		return m.Graph.Contains(sp.partial)
	default:
		return sp.partial.Contains(m.Graph)
	}
}

// collectGarbage drops completed materializations and staged relations the
// partial query no longer contains.
func (sp *Speculator) collectGarbage() error {
	// DropTable/Unstage mutate shared engine state (catalog, buffer pool), so
	// the call order must not depend on map iteration order: the engine is
	// reused across traces and a different drop order leaves a different LRU
	// state behind, making paired runs non-reproducible.
	for _, key := range sortedKeys(sp.completed) {
		table := sp.completed[key]
		v := sp.eng.Catalog.View(table)
		if v != nil && sp.partial.Contains(v.Graph) {
			continue
		}
		if sp.sharedKeys[key] {
			// A refcounted shared build: this session releases its reference;
			// only the last consumer drops the table, and only then — if no
			// consumer's final query ever read the view — is the build cost
			// charged as waste, once across all sessions (DESIGN.md §11).
			if err := sp.releaseShared(key, true); err != nil {
				return err
			}
			continue
		}
		if err := sp.dropPrivate(key); err != nil {
			return err
		}
		sp.count(statGarbageCollected, 1)
	}
	for _, rel := range sortedKeys(sp.stagedRels) {
		if !sp.partial.HasRelation(rel) {
			if err := sp.eng.Unstage(rel); err != nil {
				return err
			}
			delete(sp.stagedRels, rel)
		}
	}
	return nil
}

// dropPrivate drops a completed materialization this session alone holds.
// A build cost still in completedCost means no final query ever read the
// view: the whole materialization was wasted work.
func (sp *Speculator) dropPrivate(key string) error {
	table := sp.completed[key]
	if err := sp.eng.DropTable(table); err != nil {
		return err
	}
	delete(sp.completed, key)
	sp.releaseRetained(sp.completedPages[key])
	delete(sp.completedPages, key)
	sp.gov.NoteTerminal(sp.govID, "mat|"+key)
	if c, ok := sp.completedCost[key]; ok {
		sp.chargeWaste(table, c)
		delete(sp.completedCost, key)
	}
	return nil
}

// releaseShared drops this speculator's reference on shared build key,
// removing it from the session's prepared set. The last consumer to release
// drops the backing table; chargeIfUnused selects garbage-collection
// semantics (an unused build's cost is charged to the dropper's waste, once
// globally) versus shutdown semantics (teardown is not waste, matching the
// single-session convention).
func (sp *Speculator) releaseShared(key string, chargeIfUnused bool) error {
	drop, table, cost, charge := sp.cse.Release(key, chargeIfUnused)
	delete(sp.completed, key)
	delete(sp.sharedKeys, key)
	sp.gov.NoteTerminal(sp.govID, "mat|"+key)
	if sp.sharedOwned[key] {
		delete(sp.sharedOwned, key)
		if chargeIfUnused {
			sp.count(statGarbageCollected, 1)
		}
	}
	sp.releaseRetained(sp.completedPages[key])
	delete(sp.completedPages, key)
	if !drop {
		return nil
	}
	if err := sp.eng.DropTable(table); err != nil {
		return err
	}
	if charge {
		sp.chargeWaste(table, cost)
	}
	return nil
}

// adoptSharedBuild attaches a ready shared build to this session's prepared
// set: the view rewrites this session's queries and is refcounted until this
// session garbage-collects or shuts down. No job is issued and no build time
// is spent — the avoided cost is recorded as DedupSaved.
func (sp *Speculator) adoptSharedBuild(key, table string, cost sim.Duration, estPages int) {
	sp.completed[key] = table
	sp.sharedKeys[key] = true
	sp.completedPages[key] = estPages
	sp.retainedPages += estPages
	sp.gov.NoteRetained(sp.govID, "mat|"+key, cost, estPages)
	sp.count(statSharedAttached, 1)
	sp.count(statDedupSaved, int64(cost))
}

// releaseRetained returns pages to the session's budget headroom.
func (sp *Speculator) releaseRetained(pages int) {
	sp.retainedPages -= pages
	if sp.retainedPages < 0 {
		sp.retainedPages = 0
	}
}

// sortedKeys returns a map's keys in sorted order so that engine-mutating
// teardown loops run in a reproducible sequence.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gatesOpen applies the session-wide gates every issue opportunity passes:
// suspension while the server is busy (SuspendWhenBusy), the post-failure
// backoff (a no-op on the fault-free path, where retryAt stays 0), and the
// governor's pressure band (nil-safe: the ungoverned path stays
// decision-identical). count selects whether a refusal is counted; the
// predicted pass stays silent so the fallback pass that follows it accounts
// each refused opportunity once.
func (sp *Speculator) gatesOpen(now sim.Time, count bool) bool {
	var refusal stat
	switch {
	case sp.cfg.SuspendWhenBusy > 0 && sp.eng.ActiveJobs() >= sp.cfg.SuspendWhenBusy:
		refusal = statSuspended
	case now < sp.retryAt:
		return false
	case !sp.gov.AllowIssue(now, len(sp.outstanding) == 0):
		refusal = statGovernorDeferred
	default:
		return true
	}
	if count {
		sp.count(refusal, 1)
	}
	return false
}

// admission is admit's verdict on one candidate.
type admission int

const (
	admitted admission = iota
	// skipped: this candidate is refused (and counted); the next may pass.
	skipped
	// stopped: the breaker refuses every issue this opportunity.
	stopped
)

// admit applies the per-candidate gates every issue path shares, in order:
// the per-session page budget (inactive at the 0 default), the engine-wide
// scheduler for extra jobs beyond this speculator's first outstanding one (a
// worker slot must be free and the footprint must fit the pool's headroom),
// and the circuit breaker. The breaker comes last, once a candidate is
// actually worth issuing, so an admitted half-open probe always corresponds
// to a real job (a probe consumed with nothing to issue would wedge the
// breaker half-open forever). A refused candidate's CSE claim cseKey, if
// any, is withdrawn.
func (sp *Speculator) admit(m *Manipulation, cseKey string, now sim.Time) admission {
	v := admitted
	switch {
	case sp.cfg.BudgetPages > 0 && sp.retainedPages+m.EstPages > sp.cfg.BudgetPages:
		sp.count(statBudgetDeferred, 1)
		v = skipped
	case len(sp.outstanding) > 0 && !sp.sched.AdmitExtra(m.Key(), m.EstPages):
		sp.count(statDeferred, 1)
		v = skipped
	case !sp.breaker.Allow(now):
		v = stopped
	}
	if v != admitted && cseKey != "" {
		sp.cse.AbortClaim(cseKey)
	}
	return v
}

// maybeIssuePredicted tries to issue one predicted-final job (DESIGN.md §14):
// the Predictor's top-k candidates for the current canvas state, confidence-
// descending, filtered to finals that still extend the partial query. A nil
// job lets maybeIssue run next. Nil-safe: without a predictor it returns
// immediately.
func (sp *Speculator) maybeIssuePredicted(now sim.Time) (*Job, error) {
	if sp.pred == nil || sp.partial.IsEmpty() || !sp.gatesOpen(now, false) {
		return nil, nil
	}
	prevKey := ""
	if sp.prevFinal != nil {
		prevKey = sp.prevFinal.Key()
	}
	for _, c := range sp.pred.Predict(sp.partial.Key(), prevKey) {
		if !c.Graph.Contains(sp.partial) {
			continue // the canvas already left this predicted final
		}
		// Canonicalize the projection list exactly as OnGo will, so the form
		// key the job publishes under is the one GO looks up.
		q, err := plan.BindGraphProjections(sp.eng.Catalog, c.Graph, c.Projs)
		if err != nil {
			continue
		}
		m := Manipulation{Kind: ManipPredictFinal, Graph: c.Graph, Projs: q.Projections}
		key := m.Key()
		if sp.abandoned[key] || sp.predictedReady[FormKey(c.Graph, q.Projections)] || sp.isKnown(key) {
			continue
		}
		if err := sp.cm.ScorePredicted(&m, c.Confidence); err != nil {
			return nil, err
		}
		if m.Benefit < sp.cfg.MinBenefit {
			continue
		}
		switch sp.admit(&m, "", now) {
		case skipped:
			continue
		case stopped:
			return nil, nil
		}
		return sp.launch(m, "", now), nil
	}
	return nil, nil
}

// maybeIssue enumerates and scores the manipulation space and issues the
// best alternative if it clears the benefit threshold.
func (sp *Speculator) maybeIssue(now sim.Time) (*Job, error) {
	if !sp.gatesOpen(now, true) {
		return nil, nil
	}
	elapsed := 0.0
	if sp.formStarted {
		elapsed = now.Sub(sp.formStart).Seconds()
	}
	candidates := EnumerateManipulations(sp.partial, sp.cfg.Ops, sp.cfg.SelectionsOnly, sp.isKnown)
	if sp.cse != nil {
		return sp.maybeIssueShared(candidates, elapsed, now)
	}
	var best *Manipulation
	for i := range candidates {
		m := &candidates[i]
		if sp.abandoned[m.Key()] {
			continue
		}
		if err := sp.cm.Score(m, elapsed); err != nil {
			return nil, err
		}
		if m.Benefit < sp.cfg.MinBenefit {
			continue
		}
		if best == nil || m.Benefit > best.Benefit {
			best = m
		}
	}
	// Only the best candidate is considered: a refusal ends the opportunity.
	if best == nil || sp.admit(best, "", now) != admitted {
		return nil, nil
	}
	return sp.launch(*best, "", now), nil
}

// maybeIssueShared is maybeIssue's candidate loop under cross-session CSE
// (cfg.CSE != nil). Candidates are walked in descending benefit order (stable
// on ties, preserving enumeration order): a ready shared build is adopted in
// place — no job, no slot, no build time — and the walk continues; an
// in-flight one is skipped rather than duplicated (its owner's completion
// will make it adoptable); only a novel subplan is claimed in the registry
// and issued. At most one job is issued per call, exactly like the default
// path — fillSlots drives repeated calls while slots remain.
func (sp *Speculator) maybeIssueShared(candidates []Manipulation, elapsed float64, now sim.Time) (*Job, error) {
	scored := make([]*Manipulation, 0, len(candidates))
	for i := range candidates {
		m := &candidates[i]
		if sp.abandoned[m.Key()] {
			continue
		}
		if err := sp.cm.Score(m, elapsed); err != nil {
			return nil, err
		}
		// Adopt ready shared builds BEFORE the benefit filter: once another
		// session's build of this subplan is registered, its view already
		// rewrites this session's plans, so the candidate's score collapses
		// to ~zero precisely because the work is done. Attaching refcounts
		// the freeload — the build cannot then be dropped out from under
		// this session, and its cost is credited as dedup savings, not spent
		// again. Adoption occupies no worker slot and is never budget-gated
		// (the pages exist once globally, whoever holds references).
		if m.Kind == ManipMaterialize {
			gk := CSEKey(m.Graph)
			if table, cost, ok := sp.cse.Attach(gk); ok {
				sp.adoptSharedBuild(gk, table, cost, m.EstPages)
				continue
			}
		}
		if m.Benefit < sp.cfg.MinBenefit {
			continue
		}
		scored = append(scored, m)
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Benefit > scored[j].Benefit })
	for _, m := range scored {
		gk := ""
		if m.Kind == ManipMaterialize {
			gk = CSEKey(m.Graph)
			if table, cost, ok := sp.cse.Attach(gk); ok {
				// Became ready since the scoring pass (a concurrent session
				// finished it): adopt instead of building.
				sp.adoptSharedBuild(gk, table, cost, m.EstPages)
				continue // the slot is still free for the next candidate
			}
			if inflight, _ := sp.cse.State(gk); inflight {
				sp.cse.NoteInflightSkip()
				continue // another session is building it; adopt once ready
			}
			if !sp.cse.TryClaim(gk, m.EstPages) {
				continue // lost a concurrent claim race; re-evaluate later
			}
		}
		switch sp.admit(m, gk, now) {
		case skipped:
			continue
		case stopped:
			return nil, nil
		}
		return sp.launch(*m, gk, now), nil
	}
	return nil, nil
}

// isKnown filters the enumeration against running and completed work and
// against database state (existing views, indexes, histograms, staging).
func (sp *Speculator) isKnown(key string) bool {
	for _, job := range sp.outstanding {
		if job.Manip.Key() == key {
			return true
		}
	}
	switch {
	case len(key) > 4 && key[:4] == "mat|":
		gk := key[4:]
		if _, ok := sp.completed[gk]; ok {
			return true
		}
		// An identical view may pre-exist (Figure 6's Spec+Views mode).
		for _, v := range sp.eng.Catalog.Views() {
			if "mat|"+v.Graph.Key() != key {
				continue
			}
			if sp.cse != nil {
				if _, ready := sp.cse.State(gk); ready {
					// Another session's ready shared build: keep the subplan
					// enumerable so the candidate loop can adopt (refcount)
					// it instead of silently freeloading on a view that may
					// be dropped out from under this session.
					continue
				}
			}
			return true
		}
	case len(key) > 4 && key[:4] == "idx|":
		rel, col, ok := splitRelCol(key[4:])
		if !ok {
			return true
		}
		t, err := sp.eng.Catalog.Table(rel)
		if err != nil {
			return true
		}
		return t.Index(col) != nil
	case len(key) > 5 && key[:5] == "hist|":
		rel, col, ok := splitRelCol(key[5:])
		if !ok {
			return true
		}
		t, err := sp.eng.Catalog.Table(rel)
		if err != nil {
			return true
		}
		return t.ColumnStats(col).Hist() != nil
	case len(key) > 6 && key[:6] == "stage|":
		return sp.stagedRels[key[6:]]
	}
	return false
}

func splitRelCol(s string) (rel, col string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// issue executes the manipulation eagerly and hides its side effects until
// completion. A predicted final is executed — or satisfied from the answer
// cache — and its answer carried by the job until completion publishes it.
func (sp *Speculator) issue(m Manipulation, now sim.Time) (*Job, error) {
	job := &Job{Manip: m, IssuedAt: now}
	switch m.Kind {
	case ManipMaterialize:
		name := sp.eng.FreshName(sp.cfg.NamePrefix)
		res, err := sp.eng.Materialize(name, m.Graph, sp.cfg.Forced)
		if err != nil {
			return nil, err
		}
		sp.eng.Catalog.DropView(name) // hidden until completion
		job.tableName = name
		job.CompletesAt = now.Add(res.Duration)
		sp.count(statMaterializationsIssued, 1)
		sp.count(statMaterializationTime, int64(res.Duration))
	case ManipIndex:
		res, err := sp.eng.CreateIndex(m.Rel, m.Col)
		if err != nil {
			return nil, err
		}
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return nil, err
		}
		job.index = t.Index(m.Col)
		t.RemoveIndex(m.Col) // hidden until completion
		job.CompletesAt = now.Add(res.Duration)
	case ManipHistogram:
		res, err := sp.eng.CreateHistogram(m.Rel, m.Col)
		if err != nil {
			return nil, err
		}
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return nil, err
		}
		if cs := t.ColumnStats(m.Col); cs != nil {
			job.histogram = cs.Hist()
			cs.SetHist(nil) // hidden until completion
		}
		job.CompletesAt = now.Add(res.Duration)
	case ManipStage:
		res, err := sp.eng.Stage(m.Rel)
		if err != nil {
			return nil, err
		}
		job.CompletesAt = now.Add(res.Duration)
	case ManipPredictFinal:
		job.formKey = FormKey(m.Graph, m.Projs)
		if rows, schema, cost, ok := sp.answers.Get(job.formKey, sp.eng.DataVersion); ok {
			// Another session (or an earlier replay) already computed this
			// final: the job completes immediately, re-referencing the entry
			// at finalize.
			job.predRows, job.predSchema, job.predCost = rows, schema, cost
			job.fromCache = true
			job.CompletesAt = now
			sp.count(statAnswerCacheHits, 1)
		} else {
			job.predVersions = sp.eng.DataVersions(m.Graph.Relations())
			res, err := sp.eng.RunQuery(&plan.Query{Graph: m.Graph, Projections: m.Projs})
			if err != nil {
				return nil, err
			}
			job.predRows, job.predSchema = res.Rows, res.Schema
			job.predCost = res.Duration
			job.CompletesAt = now.Add(res.Duration)
		}
	default:
		return nil, fmt.Errorf("core: cannot issue %v", m)
	}
	return job, nil
}

// launch issues an admitted candidate, claimed in the CSE registry under
// cseKey when that is non-empty, and registers the job as outstanding. An
// issue-time failure (an I/O fault under the eager execution) is contained —
// recorded against the key and the breaker, never surfaced to the session —
// and yields nil; issue already rolled back its partial side effects.
func (sp *Speculator) launch(m Manipulation, cseKey string, now sim.Time) *Job {
	job, err := sp.issue(m, now)
	if err != nil {
		if cseKey != "" {
			sp.cse.AbortClaim(cseKey)
		}
		sp.noteFailure(m.Key(), now, err)
		return nil
	}
	// Register with the contention model only after the eager execution: a
	// session's own manipulation must not inflate the cost of the very
	// engine work that created it. The worker slot is held the same way,
	// issue to terminal transition.
	job.jobID = sp.eng.BeginJob()
	sp.sched.Acquire()
	// Governance stamps (nil-safe no-ops ungoverned): the watchdog deadline
	// is k× the cost model's predicted duration, and the job registers in
	// the governor's global shed ranking under its benefit at issue time.
	job.Deadline = sp.gov.DeadlineFor(now, m.EstDuration)
	sp.gov.NoteIssue(sp.govID, m.Key(), m.Benefit, m.EstPages)
	job.span = sp.eng.Tracer().Start("manip."+m.Kind.String(), now, 0,
		obs.Attr{Key: "key", Value: m.Key()})
	if job.tableName != "" {
		job.span.Annotate("table", job.tableName)
	}
	if job.fromCache {
		job.span.Annotate("source", "answer_cache")
	}
	if cseKey != "" {
		job.cseKey = cseKey
		sp.cse.SetTable(cseKey, job.tableName)
		sp.count(statSharedBuilds, 1)
	}
	sp.retainedPages += m.EstPages
	sp.outstanding = append(sp.outstanding, job)
	sp.count(statIssued, 1)
	if m.Kind == ManipPredictFinal {
		sp.count(statPredictedIssued, 1)
	}
	return job
}

// outcome is a job's terminal state. Every issued job reaches exactly one.
type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeInvalidated
	outcomeAtGo
	outcomeOnClose
	outcomeAborted
	outcomeShed
	outcomeDeadline
)

// outcomes gives each terminal state its Stats counter and span annotation.
var outcomes = [...]struct {
	stat stat
	span string
}{
	outcomeCompleted:   {statCompleted, "completed"},
	outcomeInvalidated: {statCanceledInvalidated, "canceled_invalidated"},
	outcomeAtGo:        {statCanceledAtGo, "canceled_at_go"},
	outcomeOnClose:     {statCanceledOnClose, "canceled_on_close"},
	outcomeAborted:     {statAborted, "aborted"},
	outcomeShed:        {statShed, "shed"},
	outcomeDeadline:    {statDeadlineAborts, "deadline_exceeded"},
}

// terminate performs job's terminal transition at simulated instant at: it
// takes the job off the outstanding list, ends its contention-model
// registration and worker slot, and counts the outcome once — the overall
// terminal and, for a predicted final, PredictedCompleted or
// PredictedCanceled. A completed job's results stay as prepared state (the
// caller already published them). Any other outcome undoes the job's hidden
// side effects and charges the run time that served nothing to Waste through
// the charged-once ledger: everything up to at for a cancellation, the full
// duration for an aborted completion (cause is its failure). at == 0 means
// the owner has no timeline (session teardown): the full duration is
// charged and the span closes at the issue instant.
func (sp *Speculator) terminate(job *Job, at sim.Time, o outcome, cause error) {
	if i := slices.Index(sp.outstanding, job); i >= 0 {
		sp.outstanding = slices.Delete(sp.outstanding, i, i+1)
	}
	sp.eng.EndJob(job.jobID)
	sp.sched.Release()
	key := job.Manip.Key()
	sp.gov.NoteTerminal(sp.govID, key)
	sp.count(outcomes[o].stat, 1)
	if job.Manip.Kind == ManipPredictFinal {
		if o == outcomeCompleted {
			sp.count(statPredictedCompleted, 1)
		} else {
			sp.count(statPredictedCanceled, 1)
		}
	}
	end := at
	switch o {
	case outcomeCompleted:
		sp.keepCompleted(job)
		delete(sp.attempts, key)
		if sp.breaker.Success() {
			sp.count(statBreakerResumes, 1)
		}
		sp.gov.NoteSuccess(at)
		end = job.CompletesAt
	case outcomeAborted:
		// The job ran to completion; only publishing its results failed.
		sp.undo(job)
		sp.chargeWaste(wasteBuildID(job), job.CompletesAt.Sub(job.IssuedAt))
	default:
		sp.undo(job)
		// A canceled half-open probe resolves nothing: re-open the breaker
		// so a later probe gets its turn (no-op unless half-open).
		sp.breaker.Canceled(at)
		ran := job.CompletesAt.Sub(job.IssuedAt)
		switch e := at.Sub(job.IssuedAt); {
		case at == 0:
			end = job.IssuedAt
		case e < 0:
			// The job was issued at a future instant (a GO that waited for a
			// completion issues follow-ups at now+waited) and is canceled
			// before that instant ever arrives: it never ran.
			ran, end = 0, job.IssuedAt
		case e < ran:
			ran = e
		}
		sp.chargeWaste(wasteBuildID(job), ran)
		if o == outcomeDeadline {
			// A strike on the global breaker, not the session's (see
			// governDegrade).
			sp.gov.NoteFailure(at)
		}
	}
	job.span.Annotate("outcome", outcomes[o].span)
	if cause != nil {
		job.span.Annotate("error", cause.Error())
	}
	job.span.End(end)
	if o == outcomeAborted {
		// A completion-time failure counts against the manipulation's retry
		// budget and the session breaker.
		sp.noteFailure(key, at, cause)
	}
}

// terminateWhere ends, in issue order, every outstanding job pick selects
// with outcome o, and returns them.
func (sp *Speculator) terminateWhere(at sim.Time, o outcome, pick func(*Job) bool) []*Job {
	var ended []*Job
	for _, job := range append([]*Job(nil), sp.outstanding...) {
		if pick(job) {
			sp.terminate(job, at, o, nil)
			ended = append(ended, job)
		}
	}
	return ended
}

// keepCompleted records a completed job's results as prepared state. A
// materialization stays a sheddable speculative asset: its pages remain
// registered (retained tier) until GC or shutdown removes them. Indexes,
// histograms, staged pages, and published predicted answers become durable
// improvements (the answer cache accounts its own footprint); they stop
// counting against the session's retained-footprint budget.
func (sp *Speculator) keepCompleted(job *Job) {
	if job.Manip.Kind != ManipMaterialize {
		sp.releaseRetained(job.Manip.EstPages)
		return
	}
	gk := job.Manip.Graph.Key()
	cost := job.CompletesAt.Sub(job.IssuedAt)
	sp.completedPages[gk] = job.Manip.EstPages
	sp.gov.NoteRetained(sp.govID, job.Manip.Key(), cost, job.Manip.EstPages)
	if job.cseKey == "" {
		sp.completedCost[gk] = cost
		return
	}
	// A shared build: the registry owns its waste accounting (charged once
	// across all consumers at the last release), so the per-session
	// completedCost stays empty for it.
	sp.cse.FinishBuild(job.cseKey, cost)
	sp.sharedKeys[gk] = true
	sp.sharedOwned[gk] = true
}

// recordHit classifies one answered GO: a hit if the final plan read at least
// one completed speculative materialization. Views that served a query are
// marked paid-for, so later garbage collection does not charge their build
// cost as waste.
func (sp *Speculator) recordHit(node plan.Node) {
	specTables := make(map[string]string, len(sp.completed)) // table → graph key
	for key, table := range sp.completed {
		specTables[table] = key
	}
	hit := false
	if node != nil {
		plan.Walk(node, func(n plan.Node) {
			if a, ok := n.(*plan.TableAccess); ok {
				if key, ok := specTables[a.Table.Name]; ok {
					hit = true
					delete(sp.completedCost, key)
				}
				// Any shared build this query read — adopted by this session
				// or not — is paid for: its cost must never be charged as
				// waste by whichever session releases it last. Nil-safe
				// no-op without CSE.
				sp.cse.MarkPaidTable(a.Table.Name)
			}
		})
	}
	if hit {
		sp.count(statHits, 1)
	} else {
		sp.count(statMisses, 1)
	}
}

// publishProfile pushes the Learner's current global estimates into the
// engine's metrics registry as gauges.
func (sp *Speculator) publishProfile() {
	ps := sp.learner.ProfileSnapshot()
	m := sp.eng.Metrics()
	m.Gauge("learner.selection_survival").Set(ps.SelectionSurvival)
	m.Gauge("learner.join_survival").Set(ps.JoinSurvival)
	m.Gauge("learner.selection_retention").Set(ps.SelectionRetention)
	m.Gauge("learner.join_retention").Set(ps.JoinRetention)
	m.Gauge("learner.think_median_s").Set(ps.ThinkMedianSeconds)
}

// undo reverts a job's hidden side effects.
func (sp *Speculator) undo(job *Job) {
	if job.cseKey != "" {
		// Withdraw the shared-build claim: no session can have attached while
		// the build was in flight, so the entry simply disappears and another
		// session may claim the subplan afresh.
		sp.cse.AbortClaim(job.cseKey)
		job.cseKey = ""
	}
	sp.releaseRetained(job.Manip.EstPages)
	switch job.Manip.Kind {
	case ManipMaterialize:
		// The table was never registered as a view; drop it. Its buffer-pool
		// footprint remains, as a really-canceled job's would. Undo is
		// best-effort — a failure leaves garbage, never corruption — but it
		// must not vanish silently: count it so the fault matrix can see it.
		if err := sp.eng.DropTable(job.tableName); err != nil {
			sp.count(statUndoFailures, 1)
		}
	case ManipIndex:
		if job.index != nil {
			_ = job.index.Tree.Drop()
		}
	case ManipHistogram:
		// The histogram object simply becomes garbage.
	case ManipPredictFinal:
		// Nothing was published: the computed rows simply become garbage (a
		// cache-path job never even held a reference before completion).
	case ManipStage:
		if err := sp.eng.Unstage(job.Manip.Rel); err != nil {
			sp.count(statUndoFailures, 1)
		}
	}
}

// CancelOutstanding cancels the in-flight manipulations, if any, undoing
// their hidden side effects. Sessions use it when their context is canceled
// mid-manipulation.
func (sp *Speculator) CancelOutstanding() {
	sp.terminateWhere(0, outcomeOnClose, func(*Job) bool { return true })
}

// Shutdown drops everything the Speculator still owns (end of session).
func (sp *Speculator) Shutdown() error {
	sp.CancelOutstanding()
	for _, key := range sortedKeys(sp.completed) {
		if sp.sharedKeys[key] {
			// Shutdown releases the session's shared-build references without
			// charging waste (teardown, like the single-session convention);
			// the last consumer's release drops the table.
			if err := sp.releaseShared(key, false); err != nil {
				return err
			}
			continue
		}
		if err := sp.eng.DropTable(sp.completed[key]); err != nil {
			return err
		}
		delete(sp.completed, key)
	}
	for _, rel := range sortedKeys(sp.stagedRels) {
		if err := sp.eng.Unstage(rel); err != nil {
			return err
		}
		delete(sp.stagedRels, rel)
	}
	// Drop the session's answer-cache references: the completed predictions
	// stay cached (evictable assets for future replays), just unpinned.
	for _, fk := range sortedKeys(sp.predictedReady) {
		sp.answers.Release(fk)
	}
	sp.predictedReady = make(map[string]bool)
	// The session stops contributing to the governor's pressure signal.
	sp.gov.Deregister(sp.govID)
	return nil
}
