package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"parastack/internal/service"
)

// TestDaemonSmoke is the end-to-end service smoke behind
// `make service-smoke`: it builds the real parastackd binary with the
// race detector, starts it on a unix socket, drives three jobs through
// the wire protocol — an injected computation hang, a clean run, and an
// external Scrout stream that goes silent — asserts all three verdicts,
// pages the verdict listing through its cursor, and checks that SIGTERM
// produces a graceful zero-exit drain.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parastackd")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building parastackd: %v", err)
	}

	sock := filepath.Join(dir, "psd.sock")
	daemon := exec.Command(bin, "-socket", sock, "-workers", "2", "-drain-timeout", "60s")
	daemon.Stdout = os.Stdout
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting parastackd: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill() // no-op after a clean exit

	// The daemon is up when the socket accepts; DialRetry rides out the
	// startup window.
	cl, err := service.DialRetry("unix", sock, dialPolicy)
	if err != nil {
		t.Fatalf("daemon never came up: %v", err)
	}
	defer cl.Close()

	must := func(req service.Request) service.Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
		return resp
	}

	must(service.Request{Op: service.OpPing})

	// Job 1: an injected computation hang — must be detected, with a
	// root cause attached.
	hang := service.JobSpec{ID: "hang", Bench: "CG", Class: "D", Procs: 64,
		Platform: "tardis", Fault: "computation", Seed: 3}
	must(service.Request{Op: service.OpSubmit, Job: &hang})

	// Job 2: a clean run — must complete with no report.
	clean := service.JobSpec{ID: "clean", Bench: "CG", Class: "D", Procs: 64,
		Platform: "tardis", Fault: "none", Seed: 4}
	must(service.Request{Op: service.OpSubmit, Job: &clean})

	// Job 3: an external Scrout stream that goes silent.
	stream := service.JobSpec{ID: "stream", Stream: true}
	must(service.Request{Op: service.OpSubmit, Job: &stream})
	var samples []service.StreamSample
	for i := 0; i < 200; i++ {
		samples = append(samples, service.StreamSample{TUS: int64(i) * 400_000, Scrout: float64(1+i%5) / 6})
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, service.StreamSample{TUS: int64(200+i) * 400_000, Scrout: 0})
	}
	must(service.Request{Op: service.OpFeed, ID: "stream", Samples: samples})

	v := must(service.Request{Op: service.OpWait, ID: "hang", TimeoutMS: 120_000}).Verdict
	if v == nil || v.Report == nil || !v.Detected {
		t.Fatalf("hang job verdict = %+v, want a detected report", v)
	}
	if v.Cause == "" {
		t.Errorf("hang verdict carries no root cause")
	}
	v = must(service.Request{Op: service.OpWait, ID: "clean", TimeoutMS: 120_000}).Verdict
	if v == nil || !v.Completed || v.Report != nil {
		t.Fatalf("clean job verdict = %+v, want completed with no report", v)
	}
	v = must(service.Request{Op: service.OpWait, ID: "stream", TimeoutMS: 120_000}).Verdict
	if v == nil || v.Report == nil {
		t.Fatalf("stream job verdict = %+v, want a report for the silent stream", v)
	}

	resp := must(service.Request{Op: service.OpVerdicts})
	if len(resp.Verdicts) != 3 || resp.More {
		t.Fatalf("verdicts = %d (more=%t), want 3 on one page", len(resp.Verdicts), resp.More)
	}
	// Page the same listing one verdict at a time through the cursor:
	// more stays true until the last page, and the pages reassemble the
	// whole listing in order.
	var after int64
	for i, want := range resp.Verdicts {
		page := must(service.Request{Op: service.OpVerdicts, After: after, Limit: 1})
		if len(page.Verdicts) != 1 || page.Verdicts[0].JobID != want.JobID {
			t.Fatalf("page %d = %+v, want verdict %s", i, page.Verdicts, want.JobID)
		}
		if last := i == len(resp.Verdicts)-1; page.More == last {
			t.Fatalf("page %d: more = %t, want %t", i, page.More, !last)
		}
		after = page.Verdicts[0].Seq
	}
	if tail := must(service.Request{Op: service.OpVerdicts, After: after, Limit: 1}); len(tail.Verdicts) != 0 || tail.More {
		t.Fatalf("page past the end = %+v, want empty", tail)
	}

	// Graceful shutdown: SIGTERM must drain and exit zero.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Errorf("socket file %s not removed on exit (err=%v)", sock, err)
	}
}
