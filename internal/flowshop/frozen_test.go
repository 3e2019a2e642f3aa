package flowshop

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// frozenSequencers holds, per sequencer × instance class, an FNV-64a
// digest of every sequence the sequencer returns on frozenInstances:
// the job IDs, the math.Float64bits of every stage and of the
// sequence's makespan. The digests were recorded before the sequencers'
// hot paths were made incremental; a refactor of how a sequence is
// found must leave every one of them unchanged. A diff here means some
// sequence or stage moved by at least one bit.
var frozenSequencers = map[string]string{
	"ScheduleM/distinct": "ee6f0cfac68d7699",
	"ScheduleM/kinds":    "da8ff8423644a666",
	"ScheduleM/integer":  "54a3b21c3929d864",
	"ScheduleM/nan":      "7eee13cb157d7cc8",
	"ScheduleM/nankind":  "9a47a7a29edf69a9",
	"NEHM/distinct":      "72f25db12d3cbddb",
	"NEHM/kinds":         "2387c1f96d08ca9e",
	"NEHM/integer":       "470e88238918ee53",
	"NEHM/nan":           "79b84771b538d3f9",
	"NEHM/nankind":       "a9f0647e857db509",
	"CDSM/distinct":      "ab73f61b577288a0",
	"CDSM/kinds":         "b27b683fc76988af",
	"CDSM/integer":       "79bbb951d40a7997",
	"CDSM/nan":           "972bf144262c3902",
	"CDSM/nankind":       "75af40ef96fd4b92",
}

// frozenInstances draws 80 seeded instances of each class: n in 1..80,
// m in 1..5, jobs all distinct or of 1–5 kinds (stage vectors ==).
// "integer" rounds every stage to a small integer, so sums are exact
// and ties plentiful; "nan" puts a NaN into one stage of one job, a
// private copy, so the job's kind-mates keep their stages; "nankind"
// (a second seeded draw, so the other classes keep their instances)
// shares one NaN vector among several jobs.
func frozenInstances() map[string][][]JobM {
	rng := rand.New(rand.NewSource(45))
	kinds := func() int { return rng.Intn(6) } // 0: all distinct
	out := map[string][][]JobM{}
	for trial := 0; trial < 80; trial++ {
		for _, class := range []string{"distinct", "kinds", "integer", "nan"} {
			n, m := 1+rng.Intn(80), 1+rng.Intn(5)
			var jobs []JobM
			switch class {
			case "distinct":
				jobs = randJobsM(rng, n, m)
			case "kinds":
				jobs = typedJobsM(rng, n, m, 1+rng.Intn(5))
			case "integer":
				jobs = cloneJobsM(typedJobsM(rng, n, m, kinds()))
				for _, j := range jobs {
					for k := range j.Stages {
						j.Stages[k] = math.Floor(j.Stages[k] * 2)
					}
				}
			case "nan":
				jobs = cloneJobsM(typedJobsM(rng, n, m, kinds()))
				jobs[rng.Intn(n)].Stages[rng.Intn(m)] = math.NaN()
			}
			out[class] = append(out[class], jobs)
		}
	}
	// "nankind": the NaN sits in a kind's shared stage vector, so several
	// jobs carry it — vectors that are not == even to themselves.
	rng = rand.New(rand.NewSource(46))
	for trial := 0; trial < 80; trial++ {
		n, m := 2+rng.Intn(79), 1+rng.Intn(5)
		jobs := typedJobsM(rng, n, m, 1+rng.Intn(5))
		bad := cloneJobsM(jobs[:1])[0].Stages
		bad[rng.Intn(m)] = math.NaN()
		for i := range jobs {
			if i == 0 || rng.Intn(3) == 0 {
				jobs[i].Stages = bad
			}
		}
		out["nankind"] = append(out["nankind"], jobs)
	}
	return out
}

type seqHash struct{ hash.Hash64 }

func (h seqHash) u64(v uint64)  { _ = binary.Write(h, binary.LittleEndian, v) }
func (h seqHash) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h seqHash) seq(seq []JobM) {
	h.u64(uint64(len(seq)))
	for _, j := range seq {
		h.u64(uint64(j.ID))
		for _, s := range j.Stages {
			h.f64(s)
		}
	}
	h.f64(MakespanM(seq))
}

func TestScheduleMFrozen(t *testing.T) {
	sequencers := []struct {
		name string
		fn   func([]JobM) []JobM
	}{{"ScheduleM", ScheduleM}, {"NEHM", NEHM}, {"CDSM", CDSM}}
	instances := frozenInstances()
	for _, s := range sequencers {
		for _, class := range []string{"distinct", "kinds", "integer", "nan", "nankind"} {
			h := seqHash{fnv.New64a()}
			for _, jobs := range instances[class] {
				h.seq(s.fn(jobs))
			}
			key := s.name + "/" + class
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := frozenSequencers[key]; got != want {
				t.Errorf("%s: sequences digest %s, frozen %q (a sequence or stage moved)", key, got, want)
			}
		}
	}
}
