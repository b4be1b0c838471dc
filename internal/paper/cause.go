package paper

import (
	"fmt"
	"io"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/workload"
)

// CauseCell is one (benchmark, fault kind) diagnosis campaign: how
// often the wait-for analysis named the injected root cause.
type CauseCell struct {
	Platform string
	Bench    string
	Class    string
	Scale    int
	Kind     fault.Kind
	Metrics  experiment.Metrics
}

// causeKinds are the injected root causes the diagnosis layer can name
// (fault.ComputationHang and fault.NodeFreeze share the
// straggler-chain signature but exercise different graph shapes).
var causeKinds = []fault.Kind{
	fault.ComputationHang,
	fault.NodeFreeze,
	fault.CommunicationDeadlock,
	fault.LostMessage,
	fault.CollectiveMismatch,
}

// causeBenches are the benchmarks the cause table covers — one per
// communication pattern (ring halo, 2D wavefront, all-to-all,
// V-cycle), all with a global collective every iteration so every
// signature, including collective mismatch, is observable.
var causeBenches = []struct{ name, class string }{
	{"CG", "D"}, {"LU", "D"}, {"FT", "D"}, {"MG", "E"},
}

// CauseCampaign runs the diagnosis campaigns behind the cause table
// for one platform at one scale: for every benchmark × fault kind it
// injects the fault, lets ParaStack detect the hang, and scores the
// wait-for diagnosis against the injected ground truth
// (Metrics.CauseAccuracy).
func CauseCampaign(platform string, scale int, opt Options) []CauseCell {
	opt = opt.withDefaults(3)
	prof, ppn := platformWorld(platform)
	var cells []CauseCell
	for bi, b := range causeBenches {
		params := workload.MustLookup(b.name, b.class, scale)
		for ki, kind := range causeKinds {
			rs := opt.campaign(experiment.RunConfig{
				Params:    params,
				Platform:  prof,
				PPN:       ppn,
				FaultKind: kind,
				Monitor:   &core.Config{},
			}, opt.Runs, opt.Seed+int64(bi*10000+ki*1000)+333)
			cells = append(cells, CauseCell{
				Platform: platform, Bench: b.name, Class: b.class, Scale: scale,
				Kind: kind, Metrics: experiment.Aggregate(rs),
			})
		}
	}
	return cells
}

// CauseTable generates the root-cause diagnosis accuracy table (no
// paper counterpart — the paper stops at faulty-process
// identification; this scores the wait-for graph layer on top of it):
// ACc is the fraction of diagnosed runs whose named cause matches the
// injected fault kind, per benchmark and kind, with honest "unknown"
// verdicts counted separately from wrong answers.
func CauseTable(w io.Writer, opt Options) []CauseCell {
	opt = opt.withDefaults(3)
	cells := CauseCampaign("tardis", 256, opt)
	fmt.Fprintf(w, "Cause table: root-cause diagnosis accuracy on tardis@256 (%d erroneous runs per cell)\n", opt.Runs)
	fmt.Fprintf(w, "%-8s", "bench")
	for _, k := range causeKinds {
		fmt.Fprintf(w, " | %-22s", k)
	}
	fmt.Fprintln(w)
	for _, b := range causeBenches {
		fmt.Fprintf(w, "%-8s", b.name)
		for _, k := range causeKinds {
			cell := findCauseCell(cells, b.name, k)
			if cell == nil || cell.Metrics.CauseChecked == 0 {
				fmt.Fprintf(w, " | %-22s", "—")
				continue
			}
			m := cell.Metrics
			fmt.Fprintf(w, " | ACc %s (%d/%d, %d unk)", fmtAC(m.CauseAccuracy), m.CauseCorrect, m.CauseChecked, m.CauseUnknown)
		}
		fmt.Fprintln(w)
	}
	checked, correct, unknown := 0, 0, 0
	for _, c := range cells {
		checked += c.Metrics.CauseChecked
		correct += c.Metrics.CauseCorrect
		unknown += c.Metrics.CauseUnknown
	}
	if checked > 0 {
		fmt.Fprintf(w, "overall ACc %s over %d diagnosed runs (%d unknown)\n",
			fmtAC(float64(correct)/float64(checked)), checked, unknown)
	}
	return cells
}

func findCauseCell(cells []CauseCell, bench string, kind fault.Kind) *CauseCell {
	for i := range cells {
		if cells[i].Bench == bench && cells[i].Kind == kind {
			return &cells[i]
		}
	}
	return nil
}
