// Package waitfor turns "the job hung" into "the job hung *because*":
// it snapshots every rank's blocked MPI operation at verdict time,
// builds the rank-level wait-for graph, and classifies the hang into a
// named root cause with machine-checkable evidence — a deadlock cycle,
// a straggler chain, an unmatched message pair, or mismatched
// collectives on one communicator.
//
// The paper stops at faulty-*process* identification; this layer is the
// graph-backtracking step ScalAna takes beyond it, using the wait-for
// cycle formalism of static MPI deadlock detection. The split is
// deliberately snapshot-then-analyze: Capture only reads a paused
// world, and Analyze is a pure function of the serializable Snapshot,
// so the classifier can be property-tested against injected ground
// truth and fuzzed on adversarial snapshots without a simulator in the
// loop.
package waitfor

import (
	"parastack/internal/mpi"
)

// RankState is one rank's blocked operation in a snapshot — a
// serializable projection of mpi.BlockInfo. Unobserved ranks (probe
// lost, node dead) carry Observed=false and zeroed state; the analyzer
// never builds evidence from them.
type RankState struct {
	Rank     int           `json:"rank"`
	Observed bool          `json:"observed"`
	Kind     mpi.BlockKind `json:"kind"`
	// Op is the blocking MPI call ("MPI_Recv", "MPI_Barrier", …).
	Op string `json:"op,omitempty"`
	// Peer and Tag identify a blocked receive's wanted message
	// (Peer == mpi.NoPeer when not in a receive).
	Peer int `json:"peer,omitempty"`
	Tag  int `json:"tag,omitempty"`
	// Comm and Seq identify a blocking collective instance
	// (Comm == mpi.NoComm when not in a collective).
	Comm int    `json:"comm,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
	// WaitingFor are the ranks this rank is directly waiting on.
	WaitingFor []int `json:"waiting_for,omitempty"`
	// Detail is mpi.BlockInfo's human-readable description
	// ("MPI_Recv src=3 tag=7"); the classifier never reads it.
	Detail string `json:"detail,omitempty"`
}

// Snapshot is the captured blocking state of a (possibly partially
// observed) world, ready for Analyze. It is plain data: JSON round-trips
// losslessly, which is what the snapshot fuzzer exploits.
type Snapshot struct {
	// Size is the world size; Ranks has exactly Size entries in rank
	// order when produced by Capture (hand-built or fuzzed snapshots may
	// violate this — Analyze validates rather than trusts).
	Size  int         `json:"size"`
	Ranks []RankState `json:"ranks"`
}

// Observed counts the observed ranks in the snapshot.
func (s *Snapshot) Observed() int {
	n := 0
	for _, r := range s.Ranks {
		if r.Observed {
			n++
		}
	}
	return n
}

// Capture snapshots the blocking state of every rank the observer can
// see. observed says whether a rank's state is available (nil means all
// are — the clean-chaos path); under probe loss or rank death the
// caller passes the monitor's actual visibility so the analysis
// degrades honestly instead of trusting state nobody collected.
//
// Capture is strictly read-only on a paused world: it must be called
// only when the engine is not advancing (after a verdict, between
// events), and it mutates nothing — the snapshot-then-analyze contract
// that lets diagnosis run on the same world the experiment will later
// inspect for ground truth.
func Capture(w *mpi.World, observed func(rank int) bool) *Snapshot {
	size := w.Size()
	s := &Snapshot{Size: size, Ranks: make([]RankState, size)}
	for i := 0; i < size; i++ {
		rs := RankState{Rank: i, Peer: mpi.NoPeer, Comm: mpi.NoComm}
		if observed == nil || observed(i) {
			info := w.Rank(i).BlockInfo()
			rs.Observed = true
			rs.Kind = info.Kind
			rs.Op = info.Op
			rs.Peer = info.Peer
			rs.Tag = info.Tag
			rs.Comm = info.Comm
			rs.Seq = info.Seq
			rs.Detail = info.Detail
			if len(info.WaitingFor) > 0 {
				rs.WaitingFor = append([]int(nil), info.WaitingFor...)
			}
		}
		s.Ranks[i] = rs
	}
	return s
}
