// Package detect defines the detector-neutral vocabulary shared by
// every hang detector in the repository: the verdict type (Report), the
// hang classification (HangType), and the Detector interface that
// core.Monitor, timeout.FixedIK, and timeout.Watchdog all implement.
//
// It sits below every detector on purpose: core and timeout cannot
// import each other, so the types they must agree on live below both.
// core.Report and timeout.Report are aliases of Report, which is what
// lets the concrete detectors satisfy Detector with their existing
// Report methods unchanged. Its only dependency is diagnose/waitfor,
// whose Diagnosis rides along on Report as the post-verdict root-cause
// annotation.
package detect

import (
	"time"

	"parastack/internal/diagnose/waitfor"
)

// HangType classifies a verified hang by the phase the error lives in.
type HangType int

const (
	// HangComputation means at least one process was persistently
	// outside MPI: the error is in application code on those ranks.
	HangComputation HangType = iota
	// HangCommunication means every process was stuck inside MPI.
	HangCommunication
)

// String implements fmt.Stringer.
func (t HangType) String() string {
	if t == HangComputation {
		return "computation-error"
	}
	return "communication-error"
}

// Report is a detector's verdict. ParaStack (core.Monitor) fills every
// field; the baseline detectors (timeout.FixedIK, timeout.Watchdog)
// only know when they fired and leave the classification fields zero.
type Report struct {
	// DetectedAt is the virtual time of the verification.
	DetectedAt time.Duration
	// Type classifies the hang.
	Type HangType
	// FaultyRanks are the ranks persistently OUT_MPI (empty for a
	// communication-error hang, and always empty for the baselines,
	// which cannot identify faulty processes).
	FaultyRanks []int
	// Suspicions is the length of the consecutive-suspicion streak
	// that triggered verification (ParaStack only).
	Suspicions int
	// Q and Threshold document the model state at detection time
	// (ParaStack only).
	Q, Threshold float64
	// Cause is the root-cause diagnosis the wait-for analysis attaches
	// after the verdict (nil when no diagnosis ran — the detectors
	// themselves never fill it; the experiment harness does, from a
	// snapshot of the paused world).
	Cause *waitfor.Diagnosis
}

// Detector is the uniform surface of a hang detector attached to one
// simulated world: construct it against the world, Start it before
// launching the application, and read Report after the run (nil means
// no hang was reported). Name identifies the detector in results and
// logs ("parastack", "fixed-ik", "watchdog", ...).
type Detector interface {
	Start()
	Report() *Report
	Name() string
}
