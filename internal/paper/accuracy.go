package paper

import (
	"fmt"
	"io"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/workload"
)

// AccuracyCell is one (platform, benchmark) campaign of erroneous runs
// under the default ParaStack configuration. Tables 6, 7, 8, 10 and
// Figure 9 all read off these campaigns.
type AccuracyCell struct {
	Platform string
	Bench    string
	Class    string
	Scale    int
	// Estimated is the calibrated clean-run duration on the platform
	// (erroneous campaigns never complete, so it stands in for the
	// paper's "rough time cost of a correct run" column).
	Estimated time.Duration
	Metrics   experiment.Metrics
	Results   []experiment.RunResult
}

// accuracyBenches lists the benchmarks each platform's accuracy
// campaign covers (paper Table 6: MG only on Tardis, FT not on
// Stampede, HPCG only on Tardis).
func accuracyBenches(platform string, scale int) []struct{ name, class string } {
	switch platform {
	case "tardis":
		return []struct{ name, class string }{
			{"BT", "D"}, {"CG", "D"}, {"FT", "D"}, {"LU", "D"},
			{"MG", "E"}, {"SP", "D"}, {"HPCG", "64"}, {"HPL", "8e4"},
		}
	case "tianhe2":
		return []struct{ name, class string }{
			{"BT", "E"}, {"CG", "E"}, {"FT", "E"}, {"LU", "E"},
			{"SP", "E"}, {"HPL", "2e5"},
		}
	default: // stampede
		return []struct{ name, class string }{
			{"BT", "E"}, {"CG", "E"}, {"LU", "E"}, {"SP", "E"}, {"HPL", "2e5"},
		}
	}
}

// AccuracyCampaign runs the erroneous-run campaigns behind Tables 6-8
// and 10 for one platform at one scale. The paper's run counts: 100 at
// 256 (Tardis), 50 at 1024 (Tianhe-2), 20 at 1024 (Stampede).
func AccuracyCampaign(platform string, scale int, opt Options) []AccuracyCell {
	opt = opt.withDefaults(5)
	prof, ppn := platformWorld(platform)
	var cells []AccuracyCell
	for bi, b := range accuracyBenches(platform, scale) {
		params := workload.MustLookup(b.name, b.class, scale)
		rs := opt.campaign(experiment.RunConfig{
			Params:    params,
			Platform:  prof,
			PPN:       ppn,
			FaultKind: fault.ComputationHang,
			Monitor:   &core.Config{},
		}, opt.Runs, opt.Seed+int64(bi*10000))
		est := params.EstimatedDuration()
		if prof.Speed > 0 {
			est = time.Duration(float64(est) / prof.Speed)
		}
		cells = append(cells, AccuracyCell{
			Platform: platform, Bench: b.name, Class: b.class, Scale: scale,
			Estimated: est,
			Metrics:   experiment.Aggregate(rs), Results: rs,
		})
	}
	return cells
}

// Table6 reproduces Table 6 (hang-detection accuracy ACh) across the
// three platforms; it returns the campaigns so Tables 7/8/10 and
// Figure 9 can reuse them without re-running.
func Table6(w io.Writer, opt Options) map[string][]AccuracyCell {
	opt = opt.withDefaults(5)
	campaigns := map[string][]AccuracyCell{
		"tardis":   AccuracyCampaign("tardis", 256, opt),
		"tianhe2":  AccuracyCampaign("tianhe2", 1024, opt),
		"stampede": AccuracyCampaign("stampede", 1024, opt),
	}
	fmt.Fprintf(w, "Table 6: hang detection accuracy (%d erroneous runs per cell; paper: 100/50/20)\n", opt.Runs)
	fmt.Fprintf(w, "%-8s | %-22s | %-22s | %-22s\n", "bench", "tardis@256", "tianhe2@1024", "stampede@1024")
	for _, b := range []string{"BT", "CG", "FT", "LU", "MG", "SP", "HPCG", "HPL"} {
		fmt.Fprintf(w, "%-8s", b)
		for _, pl := range []string{"tardis", "tianhe2", "stampede"} {
			cell := findCell(campaigns[pl], b)
			if cell == nil {
				fmt.Fprintf(w, " | %-22s", "—")
				continue
			}
			fmt.Fprintf(w, " | ACh %s (time %5.0fs)", fmtAC(cell.Metrics.Accuracy), cell.Estimated.Seconds())
		}
		fmt.Fprintln(w)
	}
	return campaigns
}

func findCell(cells []AccuracyCell, bench string) *AccuracyCell {
	for i := range cells {
		if cells[i].Bench == bench {
			return &cells[i]
		}
	}
	return nil
}

// Table7 reproduces Table 7 (response delays on Tianhe-2 at 1024):
// mean and standard deviation in seconds per benchmark.
func Table7(w io.Writer, campaigns map[string][]AccuracyCell, opt Options) {
	fmt.Fprintln(w, "Table 7: response delay on tianhe2 @1024 (seconds)")
	printDelays(w, campaigns["tianhe2"])
}

// Table8 reproduces Table 8 (response delays on Stampede at 1024; the
// 4096 row comes from the scale study).
func Table8(w io.Writer, campaigns map[string][]AccuracyCell, opt Options) {
	fmt.Fprintln(w, "Table 8: response delay on stampede @1024 (seconds)")
	printDelays(w, campaigns["stampede"])
}

func printDelays(w io.Writer, cells []AccuracyCell) {
	fmt.Fprintf(w, "%-8s | %-8s | %-8s\n", "bench", "D mean", "std")
	for _, c := range cells {
		fmt.Fprintf(w, "%-8s | %8.1f | %8.1f\n", c.Bench, c.Metrics.Delay.Mean, c.Metrics.Delay.Std)
	}
}

// Table10 reproduces Table 10 (faulty-process identification): ACf and
// PRf per platform and benchmark, over the Table 6 campaigns.
func Table10(w io.Writer, campaigns map[string][]AccuracyCell, opt Options) {
	fmt.Fprintln(w, "Table 10: faulty process identification (ACf, PRf)")
	fmt.Fprintf(w, "%-8s | %-18s | %-18s | %-18s\n", "bench", "tardis@256", "tianhe2@1024", "stampede@1024")
	for _, b := range []string{"BT", "CG", "FT", "LU", "MG", "SP", "HPCG", "HPL"} {
		fmt.Fprintf(w, "%-8s", b)
		for _, pl := range []string{"tardis", "tianhe2", "stampede"} {
			cell := findCell(campaigns[pl], b)
			if cell == nil {
				fmt.Fprintf(w, " | %-18s", "—")
				continue
			}
			fmt.Fprintf(w, " | ACf %s PRf %s", fmtAC(cell.Metrics.ACf), fmtAC(cell.Metrics.PRf))
		}
		fmt.Fprintln(w)
	}
}

// FalsePositiveStudy reproduces §7.1-II: clean runs under the default
// monitor on all three platforms; the paper observed zero false
// positives in ~66+39.7 hours of runs at α = 0.1%.
func FalsePositiveStudy(w io.Writer, opt Options) (totalRuns, falsePositives int, simulated time.Duration) {
	opt = opt.withDefaults(3)
	type cfg struct {
		platform string
		scale    int
	}
	for _, c := range []cfg{{"tardis", 256}, {"tianhe2", 1024}, {"stampede", 1024}} {
		if c.scale > opt.MaxScale {
			fmt.Fprintf(w, "  %s@%d skipped (MaxScale %d)\n", c.platform, c.scale, opt.MaxScale)
			continue
		}
		prof, ppn := platformWorld(c.platform)
		for bi, b := range accuracyBenches(c.platform, c.scale) {
			params := workload.MustLookup(b.name, b.class, c.scale)
			rs := opt.campaign(experiment.RunConfig{
				Params:   params,
				Platform: prof,
				PPN:      ppn,
				Monitor:  &core.Config{},
			}, opt.Runs, opt.Seed+int64(bi*1000)+777)
			for _, r := range rs {
				totalRuns++
				simulated += r.FinishedAt
				if r.FalsePositive {
					falsePositives++
					fmt.Fprintf(w, "  FALSE POSITIVE: %s on %s seed %d at %v\n",
						r.Spec, r.Platform, r.Seed, r.Report.DetectedAt)
				}
			}
		}
	}
	fmt.Fprintf(w, "False-positive study: %d clean runs, %.1f simulated hours, %d false positives (paper: 0 in 105.7h)\n",
		totalRuns, simulated.Hours(), falsePositives)
	return totalRuns, falsePositives, simulated
}

// Table9Row is one configuration of the P vs P* comparison.
type Table9Row struct {
	Platform string
	Bench    string
	Class    string
	P        experiment.Metrics // default ParaStack, I0 = 400ms
	PStar    experiment.Metrics // I0 = 10ms, adaptation must rescue it
}

// Table9 reproduces Table 9: ParaStack with the default I0=400ms (P)
// versus a deliberately terrible I0=10ms (P*) — interval adaptation
// must keep accuracy high either way. Paper: 10 erroneous runs each.
func Table9(w io.Writer, opt Options) []Table9Row {
	opt = opt.withDefaults(4)
	configs := []Table1Config{
		{"tianhe2", "FT", "D"},
		{"tianhe2", "FT", "E"},
		{"tardis", "FT", "D"},
		{"tardis", "LU", "D"},
		{"tardis", "SP", "D"},
	}
	var rows []Table9Row
	fmt.Fprintf(w, "Table 9: default P (I0=400ms) vs P* (I0=10ms), scale 256, %d runs each\n", opt.Runs)
	fmt.Fprintf(w, "%-20s | %-26s | %-26s\n", "config", "P: AC FP D", "P*: AC FP D")
	for ci, c := range configs {
		prof, ppn := platformWorld(c.Platform)
		params := workload.MustLookup(c.Bench, c.Class, 256)
		run := func(initial time.Duration, off int64) experiment.Metrics {
			rs := opt.campaign(experiment.RunConfig{
				Params:    params,
				Platform:  prof,
				PPN:       ppn,
				FaultKind: fault.ComputationHang,
				Monitor:   &core.Config{InitialInterval: initial},
			}, opt.Runs, opt.Seed+int64(ci*1000)+off)
			return experiment.Aggregate(rs)
		}
		row := Table9Row{Platform: c.Platform, Bench: c.Bench, Class: c.Class,
			P:     run(400*time.Millisecond, 0),
			PStar: run(10*time.Millisecond, 500),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-8s %s(%s)%-6s | AC %s FP %s D %5.1fs     | AC %s FP %s D %5.1fs\n",
			c.Platform, c.Bench, c.Class, "",
			fmtAC(row.P.Accuracy), fmtAC(row.P.FPRate), row.P.Delay.Mean,
			fmtAC(row.PStar.Accuracy), fmtAC(row.PStar.FPRate), row.PStar.Delay.Mean)
	}
	return rows
}

// ScaleStudy reproduces §7.1-III's large-scale accuracy runs: BT, CG,
// LU, SP, HPL at 4096 and HPL at 8192 and 16384 (bounded by
// Options.MaxScale), with ACh, delays, ACf and PRf.
func ScaleStudy(w io.Writer, opt Options) []AccuracyCell {
	opt = opt.withDefaults(2)
	var cells []AccuracyCell
	fmt.Fprintf(w, "Scale study (%d runs per cell; paper: 10 @4096, 5 @8192, 3 @16384)\n", opt.Runs)
	add := func(platform, bench, class string, scale, runs int, seedOff int64) {
		if scale > opt.MaxScale {
			fmt.Fprintf(w, "  %s@%d skipped (MaxScale %d)\n", bench, scale, opt.MaxScale)
			return
		}
		prof, ppn := platformWorld(platform)
		params := workload.MustLookup(bench, class, scale)
		rs := opt.campaign(experiment.RunConfig{
			Params:    params,
			Platform:  prof,
			PPN:       ppn,
			FaultKind: fault.ComputationHang,
			Monitor:   &core.Config{},
		}, runs, opt.Seed+seedOff)
		m := experiment.Aggregate(rs)
		cells = append(cells, AccuracyCell{Platform: platform, Bench: bench, Class: class, Scale: scale, Metrics: m, Results: rs})
		fmt.Fprintf(w, "  %-4s@%-6d ACh %s  D %5.1f±%4.1fs  ACf %s PRf %s\n",
			bench, scale, fmtAC(m.Accuracy), m.Delay.Mean, m.Delay.Std, fmtAC(m.ACf), fmtAC(m.PRf))
	}
	for bi, b := range []struct{ name, class string }{
		{"BT", "E"}, {"CG", "E"}, {"LU", "E"}, {"SP", "E"}, {"HPL", "2.5e5"},
	} {
		add("stampede", b.name, b.class, 4096, opt.Runs, int64(bi*1000))
	}
	add("stampede", "HPL", "3e5", 8192, (opt.Runs+1)/2, 50000)
	add("stampede", "HPL", "3.5e5", 16384, (opt.Runs+2)/3, 60000)
	return cells
}
