// Package diagnose implements the complementary analyses the paper's
// workflow (Figure 1) hands a detected hang to:
//
//   - STAT-style behavioral grouping: partition ranks into equivalence
//     classes by their current call stack, the first thing a developer
//     looks at after a hang report (Arnold et al., IPDPS'07);
//   - progress-dependency analysis: build the wait-for graph among
//     ranks from their blocking state (Figure 6, middle) and identify
//     the least-progressed ranks — the "traditional" way to find the
//     faulty process, against which ParaStack's simple OUT_MPI scan is
//     contrasted.
//
// Both run on a stopped (or paused) simulation and only read state.
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"parastack/internal/diagnose/waitfor"
	"parastack/internal/mpi"
	"parastack/internal/stack"
)

// Verdicts of PartialDiagnosis. Unknown is the honest answer when the
// evidence is too thin to classify a hang: under detector chaos (probe
// loss, dead ranks) a diagnosis may run on a fraction of the world's
// traces, and guessing from a fraction is how healthy ranks get
// accused.
const (
	// Unknown means the trace set cannot support any classification.
	Unknown = "unknown"
	// ComputationError means some observed rank is outside MPI.
	ComputationError = "computation-error"
	// CommunicationError means every observed rank is inside MPI.
	CommunicationError = "communication-error"
)

// PartialDiagnosis classifies a hang from whatever stack traces
// actually arrived: traces maps rank → call chain (outermost first) for
// the subset of the world that answered. It mirrors the paper's §4
// rule — any rank persistently outside MPI makes the error
// computational and that rank a suspect; all-inside-MPI means a
// communication error — but degrades honestly: with no traces, or with
// strictly less than half the world observed, it returns Unknown and
// accuses nobody. The quorum boundary is *exactly half observed
// classifies* (covered*2 >= size): a world of 1 needs its single
// trace, a world of 2 classifies from one trace, and odd sizes round
// the requirement up (2 of 5 is below quorum, 3 of 5 is enough). The
// wait-for classifier (diagnose/waitfor.Analyze) uses this same
// boundary so the two diagnosis layers agree on when evidence is too
// thin. Ranks outside [0, size) and empty call chains are discarded
// rather than trusted, so a corrupted partial capture can never panic
// the diagnosis or put a phantom rank in the accusation list.
func PartialDiagnosis(size int, traces map[int][]string) (verdict string, faulty []int) {
	if size <= 0 {
		return Unknown, nil
	}
	covered := 0
	for rank, frames := range traces {
		if rank < 0 || rank >= size || len(frames) == 0 {
			continue
		}
		covered++
		inMPI := false
		for _, f := range frames {
			if stack.IsMPIFrame(f) {
				inMPI = true
				break
			}
		}
		if !inMPI {
			faulty = append(faulty, rank)
		}
	}
	if covered == 0 || covered*2 < size {
		return Unknown, nil
	}
	if len(faulty) > 0 {
		sort.Ints(faulty)
		return ComputationError, faulty
	}
	return CommunicationError, nil
}

// StackGroup is one behavioral equivalence class: every rank whose
// stack trace renders identically.
type StackGroup struct {
	// Trace is the shared call chain, outermost first.
	Trace []string
	// Ranks are the members, ascending.
	Ranks []int
}

// Key renders the trace as a single string (the grouping key).
func (g StackGroup) Key() string { return strings.Join(g.Trace, ";") }

// GroupByStack partitions all ranks of the world into stack-trace
// equivalence classes, largest class first (ties broken by key). On a
// hung run this typically yields a handful of classes: one giant class
// stuck in the global collective, small classes of the faulty rank's
// neighbors stuck in point-to-point calls, and the faulty rank alone in
// application code.
func GroupByStack(w *mpi.World) []StackGroup {
	byKey := map[string]*StackGroup{}
	for _, r := range w.Ranks() {
		trace := r.Stack().Snapshot()
		key := strings.Join(trace, ";")
		g, ok := byKey[key]
		if !ok {
			g = &StackGroup{Trace: trace}
			byKey[key] = g
		}
		g.Ranks = append(g.Ranks, r.ID())
	}
	out := make([]StackGroup, 0, len(byKey))
	for _, g := range byKey {
		sort.Ints(g.Ranks)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Ranks) != len(out[j].Ranks) {
			return len(out[i].Ranks) > len(out[j].Ranks)
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// WaitEdge is one wait-for dependency: From is blocked until To makes
// progress.
type WaitEdge struct {
	From, To int
	Detail   string
}

// ProgressGraph is the wait-for graph over ranks plus derived results.
type ProgressGraph struct {
	Edges []WaitEdge
	// Blocked[r] reports whether rank r is blocked inside MPI.
	Blocked []bool
	// LeastProgressed are the ranks nobody is certain to be waiting on
	// transitively while they themselves block nobody's progress —
	// concretely: non-blocked, non-terminated ranks that appear as the
	// target of at least one wait chain. These are the faulty-process
	// candidates of the traditional analysis.
	LeastProgressed []int
}

// BuildProgressGraph captures the instantaneous wait-for structure of
// the world: a projection of the fully observed wait-for snapshot
// (waitfor.Capture). Collective waits produce one edge per missing
// rank; blocked receives produce an edge to their (known) source.
func BuildProgressGraph(w *mpi.World) *ProgressGraph {
	snap := waitfor.Capture(w, nil)
	g := &ProgressGraph{Blocked: make([]bool, snap.Size)}
	waitedOn := make([]bool, snap.Size)
	for _, rs := range snap.Ranks {
		if rs.Kind == mpi.BlockedRecv || rs.Kind == mpi.BlockedCollective {
			g.Blocked[rs.Rank] = true
			for _, to := range rs.WaitingFor {
				g.Edges = append(g.Edges, WaitEdge{From: rs.Rank, To: to, Detail: rs.Detail})
				waitedOn[to] = true
			}
		}
	}
	for _, rs := range snap.Ranks {
		if !g.Blocked[rs.Rank] && waitedOn[rs.Rank] && rs.Kind != mpi.Terminated {
			g.LeastProgressed = append(g.LeastProgressed, rs.Rank)
		}
	}
	return g
}

// Report renders a compact human-readable diagnosis: the stack groups
// and the least-progressed ranks. It is what a user would read after
// ParaStack flags a hang, before attaching a full debugger to the
// handful of implicated ranks.
func Report(w *mpi.World) string {
	var b strings.Builder
	groups := GroupByStack(w)
	fmt.Fprintf(&b, "%d ranks in %d stack equivalence classes:\n", w.Size(), len(groups))
	for i, g := range groups {
		if i >= 8 {
			fmt.Fprintf(&b, "  … %d more classes\n", len(groups)-i)
			break
		}
		fmt.Fprintf(&b, "  [%4d ranks] %s (e.g. rank %d)\n", len(g.Ranks), g.Key(), g.Ranks[0])
	}
	pg := BuildProgressGraph(w)
	fmt.Fprintf(&b, "wait-for graph: %d edges\n", len(pg.Edges))
	if len(pg.LeastProgressed) > 0 {
		fmt.Fprintf(&b, "least-progressed (faulty candidates): %v\n", pg.LeastProgressed)
	} else {
		fmt.Fprintf(&b, "no rank is outside MPI: communication-phase error\n")
	}
	return b.String()
}
