package serving

import (
	"errors"
	"fmt"

	"deepplan/internal/dnn"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/registry"
	"deepplan/internal/trace"
)

// PackMode selects how cold placement packs instances onto GPUs.
type PackMode string

const (
	// PackSpread is the paper's placement: shortest queue first, then most
	// free memory — load balance over density.
	PackSpread PackMode = "spread"
	// PackDense bin-packs fractional instances (footprint ≤ ¼ GPU, page
	// aligned) onto the fullest GPU that fits them without eviction, so
	// many small zoo models share one GPU's memory.
	PackDense PackMode = "dense"
)

// ParsePack maps a CLI spelling ("spread", "dense"; "" means spread) to a
// PackMode.
func ParsePack(s string) (PackMode, error) {
	switch PackMode(s) {
	case "", PackSpread:
		return PackSpread, nil
	case PackDense:
		return PackDense, nil
	}
	return "", fmt.Errorf("serving: unknown pack mode %q (want spread or dense)", s)
}

// DeployVariant registers a single instance of a model with an explicit
// popularity weight — the model-zoo deploy path. Variants sharing an
// architectural shape share one profile/plan; each variant pins (or, under
// the cache policies, tries to pin) its own weights. It returns the new
// instance's ID, which is the same on every node that deploys the same
// sequence.
func (srv *Server) DeployVariant(model *dnn.Model, popularity float64) (int, error) {
	dep, err := srv.deployment(model)
	if err != nil {
		return 0, err
	}
	return srv.addInstance(dep, popularity)
}

// DeployZoo registers every variant of a model zoo, one instance per
// variant, in popularity order (variant index = instance index). Use a
// cache host policy: a zoo whose aggregate weights exceed host memory is a
// deploy-time error under the legacy pinned policy.
func (srv *Server) DeployZoo(z *registry.Zoo) error {
	for i := range z.Variants {
		v := &z.Variants[i]
		if _, err := srv.DeployVariant(v.Model, v.Popularity); err != nil {
			return fmt.Errorf("serving: deploying %s: %w", v.Name, err)
		}
	}
	return nil
}

// HostPinned returns the bytes currently pinned in host memory.
func (srv *Server) HostPinned() int64 { return srv.host.Pinned() }

// relieveHostPressure evicts the least-recently-used idle warm instance
// across all GPUs so its host entry unlocks and becomes an eviction
// candidate for the cache tier. It reports whether any instance was
// evicted.
func (srv *Server) relieveHostPressure() bool {
	var victim *Instance
	for _, gs := range srv.gpus {
		v := srv.lruIdle(gs)
		if v == nil {
			continue
		}
		if victim == nil || v.lastUsed < victim.lastUsed ||
			(v.lastUsed == victim.lastUsed && v.ID < victim.ID) {
			victim = v
		}
	}
	if victim == nil {
		return false
	}
	srv.evict(victim)
	return true
}

// fetchToPin starts the fetch-to-pin of inst's weights, which are not
// host-resident: the entry is admitted (evicting per the host policy),
// locked for the duration, and after FetchEst the weights land. p is the
// demand request waiting on the fetch, which then serves it with a cold
// start; fresh marks its first deferral should it have to park. A nil p
// is a prewarm: it counts as one, starts a background load on landing, and
// is abandoned instead of parked or shed when host memory cannot take the
// weights now. Arrivals during the fetch coalesce onto fetchWait and
// re-dispatch when it lands. It reports whether the fetch started.
func (srv *Server) fetchToPin(inst *Instance, p *pending, fresh bool) bool {
	dep := inst.dep
	now := srv.sim.Now()
	var e *hostmem.Entry
	for {
		var victims []hostmem.Evicted
		var err error
		e, victims, err = srv.host.Admit(inst.pinName, dep.Model.TotalParamBytes(),
			dep.LoadEst, inst.popularity, now)
		srv.noteHostEvictions(victims, inst)
		if err == nil {
			break
		}
		busy := errors.Is(err, hostmem.ErrCacheBusy)
		// Every resident entry is locked (warm or mid-fetch). Unlock one by
		// evicting an idle warm instance from its GPU — host pressure must
		// propagate to GPU residency, or a cache full of warm-locked
		// entries would park every fetch forever.
		if busy && srv.relieveHostPressure() {
			continue
		}
		switch {
		case p == nil:
			// The prewarm lapses; the spike will pay on demand.
		case busy:
			// Nothing idle to evict; park until a completion unlocks an entry.
			srv.park(inst, *p, fresh)
		default:
			// The model cannot fit in host memory at all.
			srv.shedRequest(inst, *p, "host-capacity")
		}
		return false
	}
	e.SetLocked(true)
	inst.fetching = true
	if p == nil {
		srv.notePrewarm(inst)
	}
	srv.note(metrics.HostFetch, inst)
	if srv.rec != nil {
		srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
			"host-fetch "+dep.Model.Name, now,
			trace.Int("instance", inst.ID),
			trace.Int("bytes", dep.Model.TotalParamBytes()),
			trace.Float("fetch_us", float64(dep.FetchEst)/1e3),
		)
	}
	srv.ins.hostPinned.Set(float64(srv.host.Pinned()))
	srv.sim.After(dep.FetchEst, func() {
		inst.fetching = false
		waiters := inst.fetchWait
		inst.fetchWait = nil
		switch {
		case !srv.place(inst):
			e.SetLocked(false) // evictable again while parked, or the prewarm lapses
			if p != nil {
				srv.park(inst, *p, fresh)
			}
		case p != nil:
			srv.startCold(inst, *p)
		default:
			srv.startPrewarmLoad(inst)
		}
		for _, w := range waiters {
			if inst.state == Warm {
				srv.startWarm(inst, w)
				continue
			}
			srv.startColdPath(inst, w, true)
		}
	})
	return true
}
