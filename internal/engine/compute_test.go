package engine

import (
	"testing"

	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// TestComputeCacheMatchesCostModel checks the engine's cached per-layer
// compute times against cost.ComputeTime called directly. One engine serves
// every batch and scale in turn, so a cache entry that leaked across batch
// sizes or scales would show. A warm run is pure compute, so its whole
// timeline is the reference's running sum; in a cold PT+DHA run every
// non-DHA layer must take exactly its reference time and every DHA layer at
// least that plus the fixed DHA overhead.
func TestComputeCacheMatchesCostModel(t *testing.T) {
	for _, name := range []string{"bert-base", "gpt2", "resnet50"} {
		f := fix(t, name)
		s := sim.New()
		e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
		run := func(spec Spec) *Result {
			var res *Result
			spec.OnDone = func(r *Result) { res = r }
			if err := e.Start(spec); err != nil {
				t.Fatal(err)
			}
			s.Run()
			if res == nil {
				t.Fatalf("%s: run did not complete", name)
			}
			return res
		}
		baseline, ptdha := f.pl.PlanBaseline(f.prof), f.pl.PlanPTDHA(f.prof, 2)
		for _, batch := range []int{1, 4, 8} {
			for _, scale := range []float64{0, 0.37, 1} {
				ref := func(i int) sim.Duration {
					d := f.cost.ComputeTime(&f.model.Layers[i], batch)
					if scale != 0 && scale != 1 {
						d = sim.Duration(float64(d) * scale)
					}
					return d
				}

				warm := run(Spec{Model: f.model, Plan: baseline, Batch: batch, Warm: true, ComputeScale: scale})
				at := warm.ExecBegin
				for i := range warm.Timings {
					lt := &warm.Timings[i]
					if lt.ExecStart != at || lt.ExecDone != at.Add(ref(i)) {
						t.Fatalf("%s b=%d s=%v warm layer %d: exec [%v, %v], reference [%v, %v]",
							name, batch, scale, i, lt.ExecStart, lt.ExecDone, at, at.Add(ref(i)))
					}
					at = lt.ExecDone
				}
				if warm.Finish != at {
					t.Fatalf("%s b=%d s=%v warm finish %v, reference %v", name, batch, scale, warm.Finish, at)
				}

				cold := run(Spec{Model: f.model, Plan: ptdha, Batch: batch, Secondaries: []int{2}, ComputeScale: scale})
				for i := range cold.Timings {
					lt := &cold.Timings[i]
					got := lt.ExecDone.Sub(lt.ExecStart)
					if lt.Method == plan.DHA && f.model.Layers[i].HasParams() {
						if got < ref(i)+f.cost.DHAFixedOverhead {
							t.Fatalf("%s b=%d s=%v DHA layer %d ran %v, below compute %v plus overhead",
								name, batch, scale, i, got, ref(i))
						}
						continue
					}
					if got != ref(i) {
						t.Fatalf("%s b=%d s=%v cold layer %d ran %v, reference %v", name, batch, scale, i, got, ref(i))
					}
				}
				for i := range cold.Timings {
					if got, want := cold.LayerName(i), f.model.Layers[i].Name; got != want {
						t.Fatalf("%s: LayerName(%d) = %q, want %q", name, i, got, want)
					}
				}
			}
		}
	}
}
