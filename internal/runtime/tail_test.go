package runtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Pickup-time grouping on the default server: where the tail begins,
// what a free worker takes and how long a group is held, and that
// parked jobs drain. The scheduler tests drive takeLocked on a scheduler
// nothing runs — no goroutine, no socket, no clock but the test's.

// TestTailUnit: the tail unit comes from the graph's layer types, on
// the whole zoo: the exit that feeds the first layer of the dense head,
// -1 where a convolution is the classifier, -1 on any quantized model.
func TestTailUnit(t *testing.T) {
	for name, want := range map[string]string{
		"alexnet":     "conv5/pool",
		"vgg16":       "block5/pool",
		"mobilenetv2": "head/gap",
		"resnet18":    "head/gap",
		"googlenet":   "head/gap",
		"squeezenet":  "",
		"nin":         "",
	} {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		units := profile.LineView(g)
		got := ""
		if k := tailUnit(g, units, false); k >= 0 {
			got = g.Node(units[k].Exit).Layer.Name()
		}
		if got != want {
			t.Errorf("%s: tail unit exit %q, want %q", name, got, want)
		}
		if k := tailUnit(g, units, true); k != -1 {
			t.Errorf("%s quantized: tail unit %d, want none", name, k)
		}
	}
	if lp := newLineProgram(testModel(t)); lp.tail != 6 {
		t.Errorf("test model: tail unit %d, want 6 (gap)", lp.tail)
	}
	if lp := newLineProgram(quantTestModel(t)); lp.tail != -1 {
		t.Errorf("quantized test model: tail unit %d, want none", lp.tail)
	}
}

// TestPickRule is the rule as a table: (queued, sizes of the parked
// groups oldest first, when each falls due, the size that closes a
// group, the time) -> the group to run, -1 for the WFQ head or nothing
// yet, and how long until something is due. Times are milliseconds on
// no clock; a row without them holds nothing (every group is due).
func TestPickRule(t *testing.T) {
	at := func(ms int) time.Time { return time.Time{}.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		queued int
		parked []int
		due    []int
		max    int
		now    int
		want   int
		wait   int
	}{
		{0, nil, nil, 16, 0, -1, 0},
		{3, nil, nil, 16, 0, -1, 0},
		{2, []int{5}, nil, 16, 0, -1, 0},                  // queued + parked: the WFQ head
		{1, []int{15, 3}, nil, 16, 0, -1, 0},              // one short of the tile still waits
		{0, []int{1}, nil, 16, 0, 0, 0},                   // nothing queued: the group, even of one
		{0, []int{2, 9}, nil, 16, 0, 0, 0},                // the oldest, not the fullest
		{4, []int{3, tailGroupMax}, nil, 16, 0, 1, 0},     // a full group goes ahead of the queue
		{0, []int{3, tailGroupMax, 16}, nil, 16, 0, 1, 0}, // and ahead of an older one that is not
		{4, []int{tailGroupMax, 16, 2}, nil, 16, 0, 0, 0}, // full groups: oldest first
		{0, []int{3}, []int{12}, 16, 10, -1, 2},           // unripe and not full: wait it out
		{0, []int{3}, []int{12}, 16, 12, 0, 0},            // due: that group
		{0, []int{3}, []int{12}, 16, 40, 0, 0},            // overdue
		{0, []int{3, 1}, []int{12, 13}, 16, 5, -1, 7},     // the earliest of two unripe groups sets the wait
		{0, []int{3, 1}, []int{12, 13}, 16, 12, 0, 0},     // and runs first, alone
		{2, []int{3}, []int{12}, 16, 40, -1, 0},           // a due group still yields to the queue
		{2, []int{31, 5}, []int{12, 13}, 32, 0, -1, 0},    // the size that closes a group is the stage's:
		{2, []int{31, 32}, []int{12, 13}, 32, 0, 1, 0},    // full at 32 goes ahead of the queue as at 16,
		{0, []int{16, 32}, []int{12, 13}, 32, 0, 1, 0},    // and ahead of an older, unripe one
	} {
		parked := make([]task, len(c.parked))
		for i, n := range c.parked {
			parked[i].jobs = make([]pendingJob, n)
			if c.due != nil {
				parked[i].due = at(c.due[i])
			}
		}
		got, wait := pick(c.queued, parked, c.max, at(c.now))
		if got != c.want || wait != time.Duration(c.wait)*time.Millisecond {
			t.Errorf("pick(%d queued, parked %v due %v, max %d, now %d) = %d, %v; want %d, %d ms",
				c.queued, c.parked, c.due, c.max, c.now, got, wait, c.want, c.wait)
		}
	}
}

// idleScheduler is a scheduler with its queues and nothing running.
func idleScheduler(srv *Server) *fleetScheduler {
	fs := &fleetScheduler{s: srv, tenants: map[string]*tenantQueue{}}
	fs.cond = sync.NewCond(&fs.mu)
	return fs
}

// TestTakeByStageAndFrame drives takeLocked over the stage kinds and
// job kinds, line and set: what parks, what a worker gets, in which
// order, and how long it is told to wait first. The clock is the
// test's: it moves only by the waits takeLocked returns. A terminal stage holds a partial tail
// group for groupHold once nothing is queued, so a row that ends on one
// waits exactly that.
func TestTakeByStageAndFrame(t *testing.T) {
	m := testModel(t)
	const tail, hold = 6, groupHold
	forward := func(srv *Server) *Server {
		srv, err := srv.WithNextHop("127.0.0.1:1", 3)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	line := func(id, cut int) pendingJob {
		return pendingJob{conn: &connCtx{}, tenant: DefaultTenant, req: &jobRequest{JobID: uint32(id), Cut: cut}}
	}
	set := func(id int) pendingJob {
		return pendingJob{conn: &connCtx{}, tenant: DefaultTenant, req: &jobRequest{JobID: uint32(id), Cut: -1}}
	}
	many := func(from, n, cut int) []pendingJob {
		jobs := make([]pendingJob, n)
		for i := range jobs {
			jobs[i] = line(from+i, cut)
		}
		return jobs
	}
	for _, c := range []struct {
		name     string
		srv      *Server
		at       int // the unit from which a line job parks, -1: none does
		queued   []pendingJob
		returned []pendingJob
		closed   bool
		want     [][]int       // job IDs of each task takeLocked returns, in order
		held     time.Duration // what the worker was told to wait, in all
	}{
		{"conv job before tail jobs: the head first, then the group whole", NewServer(m), tail,
			[]pendingJob{line(0, 1), line(1, tail), line(2, tail), line(3, tail)}, nil, false,
			[][]int{{0}, {1, 2, 3}}, hold},
		{"tail jobs ahead of a conv job park while it is queued", NewServer(m), tail,
			[]pendingJob{line(1, tail), line(2, tail), line(0, 1), line(3, tail)}, nil, false,
			[][]int{{0}, {1, 2, 3}}, hold},
		{"groups are by cut, oldest first", NewServer(m), tail,
			[]pendingJob{line(0, tail+1), line(1, tail), line(2, tail+1)}, nil, false,
			[][]int{{0, 2}, {1}}, hold},
		{"the sixteenth member sends the group ahead of the queue", NewServer(m), tail,
			append(many(0, tailGroupMax+2, tail), line(99, 1)), nil, false,
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, {99}, {16, 17}}, hold},
		{"a set frame never parks", NewServer(m), tail,
			[]pendingJob{set(0), line(1, tail), set(2)}, nil, false,
			[][]int{{0}, {2}, {1}}, hold},
		{"a cut out of range parks with its like and fails there", NewServer(m), tail,
			[]pendingJob{line(0, 200), line(1, 200)}, nil, false,
			[][]int{{0, 1}}, hold},
		{"a quantized model never parks", NewServer(quantTestModel(t)), -1,
			[]pendingJob{line(0, 1), line(1, tail), line(2, tail)}, nil, false,
			[][]int{{0}, {1}, {2}}, 0},
		{"an int8 model never parks under WithBatching either", NewServer(quantTestModel(t)).WithBatching(time.Second, 4), -1,
			many(0, 2, tail), nil, false,
			[][]int{{0}, {1}}, 0},
		{"a partial tail group is held once nothing is queued", NewServer(m), tail,
			[]pendingJob{line(0, tail), line(1, tail)}, nil, false,
			[][]int{{0, 1}}, hold},
		{"a full group is not held", NewServer(m), tail,
			many(0, tailGroupMax, tail), nil, false,
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}, 0},
		{"WithBatching's max closes tail groups at 32", NewServer(m).WithBatching(time.Second, 32), tail,
			many(0, 34, tail), nil, false,
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}, {32, 33}}, hold},
		{"a closed scheduler holds nothing back", NewServer(m), tail,
			[]pendingJob{line(0, tail), line(1, tail+1), line(2, tail)}, nil, true,
			[][]int{{0, 2}, {1}}, 0},
		{"a forwarding stage never parks", forward(NewServer(m)), -1,
			[]pendingJob{line(0, tail), line(1, tail)}, nil, false,
			[][]int{{0}, {1}}, 0},
		{"a forwarding stage never parks under WithBatching", forward(NewServer(m).WithBatching(time.Second, 4)), -1,
			[]pendingJob{line(0, tail), line(1, tail)}, nil, false,
			[][]int{{0}, {1}}, 0},
		// The handoff is unit 3: a line job cut before it runs its middle
		// segment on this stage, in a group taken off the queue as it stands.
		{"a forwarding stage runs four queued jobs of one cut as one middle group", forward(NewServer(m)), -1,
			many(0, 5, 1), nil, false,
			[][]int{{0, 1, 2, 3}, {4}}, 0},
		{"fewer than four queued run their middle segments alone", forward(NewServer(m)), -1,
			many(0, 3, 1), nil, false,
			[][]int{{0}, {1}, {2}}, 0},
		{"a job of another cut ends a middle group", forward(NewServer(m)), -1,
			[]pendingJob{line(0, 1), line(1, 1), line(2, 2), line(3, 1), line(4, 1), line(5, 2)}, nil, false,
			[][]int{{0, 1}, {2}, {3}, {4}, {5}}, 0},
		{"a set frame is never in a middle group", forward(NewServer(m)), -1,
			[]pendingJob{set(0), line(1, 1), line(2, 1), line(3, 1), set(4), line(5, 1)}, nil, false,
			[][]int{{0}, {1, 2, 3}, {4}, {5}}, 0},
		{"a job cut at or past the handoff is never in a middle group", forward(NewServer(m)), -1,
			append(many(0, 4, 3), line(4, 1), line(5, 3), line(6, 1), line(7, 1)), nil, false,
			[][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}, 0},
		{"WithBatching's max does not widen a middle group", forward(NewServer(m).WithBatching(time.Second, 8)), -1,
			many(0, 8, 0), nil, false,
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, 0},
		{"a quantized forwarding stage runs every middle segment alone", forward(NewServer(quantTestModel(t))), -1,
			many(0, 4, 1), nil, false,
			[][]int{{0}, {1}, {2}, {3}}, 0},
		{"a job given back goes ahead of queue and groups", NewServer(m), tail,
			[]pendingJob{line(1, tail), line(0, 1)}, []pendingJob{line(7, 3)}, false,
			[][]int{{7}, {0}, {1}}, hold},
		{"no window, or no room for two, is the default stage", NewServer(m).WithBatching(0, 16).WithBatching(1, 1), tail,
			many(0, tailGroupMax+1, tail), nil, false,
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, {16}}, hold},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.srv.gather()
			wantHold := groupHold // every terminal stage's, tail unit or none
			if c.srv.next != nil {
				wantHold = 0
			}
			if g.at != c.at || g.hold != wantHold {
				t.Fatalf("gather() = %+v, want at %d held %v", g, c.at, wantHold)
			}
			fs := idleScheduler(c.srv)
			for _, pj := range c.queued {
				if !fs.admit(pj) {
					t.Fatal("admit refused on an open scheduler")
				}
			}
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fs.returned, fs.closed = c.returned, c.closed
			var got [][]int
			start := time.Unix(0, 0)
			now := start
			for {
				task, wait, ok := fs.takeLocked(now)
				if !ok && wait == 0 {
					break
				}
				now = now.Add(wait)
				if !ok {
					continue
				}
				var ids []int
				for _, pj := range task.jobs {
					ids = append(ids, int(pj.req.JobID))
					if parked := !pj.parked.IsZero(); parked != (c.at >= 0 && pj.req.Cut >= c.at) {
						t.Errorf("job %d: parked stamp set = %v", pj.req.JobID, parked)
					}
				}
				got = append(got, ids)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("tasks %v, want %v", got, c.want)
			}
			if held := now.Sub(start); held != c.held {
				t.Errorf("told to wait %v in all, want %v", held, c.held)
			}
			if fs.queued != 0 || len(fs.parked) != 0 || len(fs.returned) != 0 {
				t.Errorf("%d queued, %d groups parked, %d given back after the drain", fs.queued, len(fs.parked), len(fs.returned))
			}
		})
	}
}

// TestPackMatchesEngineLayout: the stage packs a group into a lent
// buffer itself; the layout must be engine.PackBatch's, on a spatial
// boundary and on vectors (one-float planes, which pack transposes
// element by element, in chunks of 32 members: 100 is three full
// chunks and a ragged one), also when the buffer comes back used. Each
// member's unpack of the packed batch is the member again.
func TestPackMatchesEngineLayout(t *testing.T) {
	srv := NewServer(testModel(t))
	for _, tc := range []struct {
		shape tensor.Shape
		ns    []int
	}{
		{tensor.NewCHW(4, 3, 2), []int{1, 2, 5}},
		{tensor.NewVec(7), []int{1, 2, 5, 32, 100}},
		{tensor.NewCHW(9, 1, 1), []int{2, 32, 33}},
	} {
		shape := tc.shape
		for round := 0; round < 2; round++ {
			for _, n := range tc.ns {
				tensors, jobs := packGroup(shape, n, round)
				want, err := engine.PackBatch(tensors)
				if err != nil {
					t.Fatal(err)
				}
				got := srv.pack(jobs)
				if !got.Shape.Equal(want.Shape) {
					t.Fatalf("%v x %d: packed shape %v, want %v", shape, n, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%v x %d: element %d is %v, want %v", shape, n, i, got.Data[i], want.Data[i])
					}
				}
				for b := range tensors {
					member := srv.unpack(got, shape, n, b)
					if !member.Shape.Equal(shape) {
						t.Fatalf("%v x %d: member %d unpacks to shape %v", shape, n, b, member.Shape)
					}
					for i, v := range tensors[b].Data {
						if member.Data[i] != v {
							t.Fatalf("%v x %d: member %d element %d unpacks to %v, want %v", shape, n, b, i, member.Data[i], v)
						}
					}
					if n > 1 {
						member.Recycle()
					}
				}
				if n > 1 {
					got.Recycle()
				}
			}
		}
	}
}

// packGroup makes n checked-group members of the given shape, each
// element a distinct value.
func packGroup(shape tensor.Shape, n, round int) ([]*tensor.Tensor, []pendingJob) {
	tensors, jobs := make([]*tensor.Tensor, n), make([]pendingJob, n)
	for b := range tensors {
		tensors[b] = tensor.New(shape)
		for i := range tensors[b].Data {
			tensors[b].Data[i] = float32(100*b + i + round)
		}
		jobs[b].req = &jobRequest{Pairs: []boundary{{T: tensors[b]}}}
	}
	return tensors, jobs
}

// TestPackVectorAllocs: a warm 32-job vector pack — the fleet-head
// group at head/gap — borrows its buffer from the stage's arena and
// transposes into it with no allocation of its own.
func TestPackVectorAllocs(t *testing.T) {
	srv := NewServer(testModel(t))
	_, jobs := packGroup(tensor.NewCHW(1280, 1, 1), 32, 0)
	if allocs := testing.AllocsPerRun(20, func() { srv.pack(jobs).Recycle() }); allocs != 0 {
		t.Fatalf("pack of 32 x [1280 1 1]: %v allocations, want 0", allocs)
	}
}

// BenchmarkPackVector times pack on the fleet-head group: 32 jobs cut
// at mobilenetv2's head/gap, 1 280 floats each, transposed into one
// [40960 1 1] batch.
func BenchmarkPackVector(b *testing.B) {
	srv := NewServer(testModel(b))
	_, jobs := packGroup(tensor.NewCHW(1280, 1, 1), 32, 0)
	srv.pack(jobs).Recycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.pack(jobs).Recycle()
	}
}

// eventually polls cond until it holds; the wait bounds a hang, nothing
// is asserted about how long it took.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServerCloseDrainsParked: Close with tail jobs waiting answers each
// exactly once, as one group, and leaves no goroutine behind. The one
// worker is held inside a reply write while the five arrive, so none
// has run when Close begins; the drain must park them, take the group
// and only then let the worker go.
func TestServerCloseDrainsParked(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(1).WithObs(o)
	release := wedgeWorker(t, srv, m, input(0))
	// The wedge job's own tail group, of one, has been picked up: from
	// here the worker only computes it and blocks on the reply.
	eventually(t, "the wedge job's tail pass", func() bool { return o.SoloJobs.Value() == 1 })

	const tail, n = 6, 5
	cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	calls, results, wants := make([]*call, n), make([]*JobResult, n), make([]int, n)
	for i := range calls {
		var b *tensor.Tensor
		b, wants[i] = boundaryAt(t, m, tail, 3*i+1)
		results[i] = &JobResult{JobID: i}
		c, err := cl.enqueueInfer(results[i], tail, b)
		if err != nil {
			t.Fatal(err)
		}
		calls[i] = c
	}
	eventually(t, "all five admitted", func() bool { return o.QueueDepth.Value() == n })
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	release()
	for i, c := range calls {
		if err := cl.await(c); err != nil {
			t.Fatalf("job %d lost in the drain: %v", i, err)
		}
		if results[i].Class != wants[i] {
			t.Errorf("job %d: class %d, want %d", i, results[i].Class, wants[i])
		}
	}
	<-closed
	if o.BatchedJobs.Value() != n || o.SoloJobs.Value() != 1 {
		t.Errorf("%d jobs in groups and %d alone, want %d and 1: the five as one group, each answered once",
			o.BatchedJobs.Value(), o.SoloJobs.Value(), n)
	}
	if got := o.ServerJobs.Value(); got != n+1 {
		t.Errorf("%d replies written, want %d", got, n+1)
	}
}

// TestQuantBurstRunsOneByOne: eight same-cut int8 jobs at once, on the
// default server and on one asked to batch. The int8 kernels are
// single-image, so neither may put two jobs through the engine together
// — a batching server once did, and failed all eight connections' jobs —
// and every class must be the local int8 forward's. A quantized model
// has no tail unit, so nothing of it parks or counts in a group.
func TestQuantBurstRunsOneByOne(t *testing.T) {
	goroutinesSettle(t)
	m := quantTestModel(t)
	const n, cut = 8, 3
	inputs, wants := make([]*tensor.Tensor, n), make([]int, n)
	for i := range inputs {
		inputs[i] = input(5*i + 2)
		out, err := m.Forward(inputs[i].Clone())
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = engine.Argmax(out)
	}
	for name, srv := range map[string]*Server{
		"default":  NewServer(m).WithWorkers(2),
		"batching": NewServer(m).WithWorkers(2).WithBatching(20*time.Millisecond, n),
	} {
		t.Run(name, func(t *testing.T) {
			o := NewObs(obs.NewTracer(0), obs.NewMetrics())
			srv.WithObs(o)
			defer srv.Close()
			cConn, sConn := net.Pipe()
			go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
			defer cConn.Close()
			cl := NewClient(cConn, m, netsim.WiFi, 1e-6)
			rep, err := cl.RunPlan(uniformPlan(n, cut), inputs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Results {
				if r.Class != wants[r.JobID] {
					t.Errorf("job %d: class %d, local int8 forward says %d", r.JobID, r.Class, wants[r.JobID])
				}
			}
			if got := o.BatchedJobs.Value(); got != 0 {
				t.Errorf("%d int8 jobs ran in a group", got)
			}
			if got := o.SoloJobs.Value(); got != 0 {
				t.Errorf("%d int8 jobs counted in a group of one, want 0: none parks", got)
			}
		})
	}
}
