package runtime

import (
	"net"
	goruntime "runtime"
	"runtime/debug"
	"testing"
	"time"

	"dnnjps/internal/netsim"
	"dnnjps/internal/tensor"
)

// TestStageAllocsPerJob holds the one stage task to what the forks it
// replaced cost in allocations per job, both ends of a loopback TCP
// connection counted: a line job on its own, end to end; a member of a
// coalesced group of 32; a job a middle stage forwards, fed as a
// boundary tensor so that no device prefix hides the two servers; and a
// job that reaches the default server cut at the tail unit, one in
// flight, so that it is parked and picked up as a group of one — what
// the park costs with nothing to share it (companions only divide the
// pass's part; 32 in flight read 11.0–12.0 as the groups fall). A job
// on its own is a group of one of the coalesced path; the separate
// entry point it used to have was kept for its allocation count, so
// that count is now a ceiling. The first three ceilings are the readings of the last tree
// that had the forks (23.00–23.03, 11.01–11.09 and 31.00–31.04 over
// five runs) rounded up to the next quarter; the one-pass tree read
// 20.0, 9.9 and 31.0, and this one — where a line job on a default
// server is two spans, a park and a group of one, but the activation
// maps are pooled and a finished pass gives its tensors back to their
// arenas — 18.0, 9.7 and 29.0. The parked ceiling is this tree's
// reading, 17.01–17.02 over five runs, with the same margin. The plan
// and runner rows are 8-job RunPlan calls of a Client and of a Runner
// (which dials afresh each call); their ceilings are the readings of the
// last tree with a run loop per caller (14.91–14.99 and 30.54–30.69 over
// eight runs) rounded up to the next quarter. The forwarded-group row
// sends the forwarded jobs in bursts of 16, so that the stage runs their
// middle segments in groups and the relayed replies give the handoff
// tensors back; its ceiling is the forwarded row's reading on the last
// tree with no middle groups (25.00) rounded up to the next quarter.
// MemStats deltas with the collector held off, as in the engine's
// steady-state tests.
func TestStageAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race (sync.Pool randomly drops Puts)")
	}
	m := testModel(t)
	const (
		jobs    = 256
		group   = 32
		burst   = 16 // forwarded in bursts: the middle segments run in groups
		headCut = 6  // after gap: the suffix is the dense head
		handoff = 3
	)
	client := func(srv *Server) *Client {
		conn := benchDialServer(t, srv)
		t.Cleanup(func() { conn.Close() })
		return NewClient(conn, m, netsim.WiFi, 1e-6)
	}
	in := input(1)
	oneByOne := func(cl *Client, cut int) func() {
		return func() {
			for i := 0; i < jobs; i++ {
				if _, err := cl.RunJob(i, cut, in); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	boundaries, early := make([]*tensor.Tensor, jobs), make([]*tensor.Tensor, jobs)
	for i := range boundaries {
		boundaries[i], _ = boundaryAt(t, m, headCut, i)
		early[i], _ = boundaryAt(t, m, handoff-2, i)
	}
	batchSrv := NewServer(m).WithWorkers(2).WithBatching(time.Minute, group)
	batchSrv.hold = time.Minute // only a full group runs, whatever the timing
	batched := client(batchSrv)
	middle, err := NewServer(m).WithWorkers(2).WithNextHop(startTerminal(t, m), handoff)
	if err != nil {
		t.Fatal(err)
	}
	forwarder := client(middle)
	parked := client(NewServer(m).WithWorkers(2))
	planIn := make([]*tensor.Tensor, 8)
	for i := range planIn {
		planIn[i] = in
	}
	plan := uniformPlan(len(planIn), 2)
	planned := client(NewServer(m).WithWorkers(2))
	addr := startTerminal(t, m)
	runner := NewRunner(func() (net.Conn, error) { return net.Dial("tcp", addr) }, m, netsim.WiFi, 1e-6, RunOptions{})
	byPlan := func(run func() error) func() {
		return func() {
			for i := 0; i < jobs; i += len(planIn) {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"line", 23.25, oneByOne(client(NewServer(m).WithWorkers(2)), 2)},
		{"group-member", 11.25, func() {
			for i := 0; i < jobs; i += group {
				if _, err := batched.RunBoundaryJobs(headCut, boundaries[i:i+group]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"parked", 17.25, func() {
			for i := range boundaries {
				if _, err := parked.RunBoundaryJobs(headCut, boundaries[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		// No device prefix here: what it costs would hide the two servers.
		{"forwarded", 31.25, func() {
			for i := range early {
				if _, err := forwarder.RunBoundaryJobs(handoff-2, early[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"forwarded-group", 25.25, func() {
			for i := 0; i < jobs; i += burst {
				if _, err := forwarder.RunBoundaryJobs(handoff-2, early[i:i+burst]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"plan", 15.00, byPlan(func() error {
			_, err := planned.RunPlan(plan, planIn)
			return err
		})},
		// Every call dials: the connection's setup is part of what a run costs.
		{"runner", 30.75, byPlan(func() error {
			_, err := runner.RunPlan(plan, planIn)
			return err
		})},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			c.run() // warm the arena, the pools and the connections
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			c.run()
			goruntime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / jobs
			t.Logf("%.2f allocations per job", got)
			if got > c.ceiling {
				t.Errorf("%.2f allocations per job, want <= %.2f", got, c.ceiling)
			}
		})
	}
}
