package serving

import (
	"strconv"

	"deepplan/internal/faults"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
)

// instruments are the server's pre-resolved monitor handles. They are
// created once at New (and per deployment at Deploy), so the per-event
// cost is a nil check plus a float add — no label formatting, no map
// lookups, no allocations (asserted by bench_test.go). With Config.Monitor
// nil every handle is nil and every use is a no-op.
type instruments struct {
	reg *monitor.Registry

	// kinds counts each occurrence kind server-wide; ColdStart's counter
	// is per model and lives in depInstruments.
	kinds  [metrics.NumKinds]*monitor.Counter
	depth  *monitor.Gauge
	depthH *monitor.Histogram

	hostPinned *monitor.Gauge

	gpu []gpuInstruments // indexed by GPU id

	faultEvents [faults.NumKinds]*monitor.Counter

	// final makes the end-of-run gauge publication happen once, at the
	// first report.
	final bool
}

// gpuInstruments are one GPU's handles.
type gpuInstruments struct {
	busy     *monitor.Counter
	busyFrac *monitor.Gauge
	up       *monitor.Gauge
	failures *monitor.Counter
}

// depInstruments are the per-deployment handles, indexed by class
// (0 = cold-served, 1 = warm-served), plus the occurrence table note
// counts into: the server-wide counters with this model's cold starts.
type depInstruments struct {
	requests   [2]*monitor.Counter
	violations [2]*monitor.Counter
	latency    [2]*monitor.Histogram
	kinds      [metrics.NumKinds]*monitor.Counter
}

// kindCounters names the monitor counter of each occurrence kind.
var kindCounters = [metrics.NumKinds]struct{ name, help string }{
	metrics.Arrival:      {monitor.MetricArrivals, "Requests received (first attempts, before admission)."},
	metrics.ColdStart:    {"deepplan_cold_starts", "Cold-start runs launched."},
	metrics.Eviction:     {"deepplan_evictions", "Instances evicted from GPU residency."},
	metrics.Relocation:   {"deepplan_relocations", "Warm instances relocated off a congested GPU."},
	metrics.Deferral:     {"deepplan_deferred", "Requests parked on the waitlist for GPU memory."},
	metrics.Shed:         {monitor.MetricShed, "Requests dropped by admission control or a failed retry."},
	metrics.Retry:        {"deepplan_retried", "Requests re-dispatched after a GPU failure."},
	metrics.Sleep:        {"deepplan_sleeps", "Warm instances demoted to the sleeping state (GPU memory released, host copy kept)."},
	metrics.Wake:         {"deepplan_wakes", "Sleeping instances promoted back to warm via a direct-host-access load."},
	metrics.Prewarm:      {"deepplan_prewarms", "Prewarm actuations started by the predictive autoscaler."},
	metrics.SwapIn:       {"deepplan_swap_ins", "Swapped-out instances promoted back to warm (host fetch + load)."},
	metrics.HostFetch:    {"deepplan_host_fetches", "Fetch-to-pin operations for weights that were not host-resident."},
	metrics.HostEviction: {"deepplan_host_evictions", "Entries evicted from the pinned host-memory cache tier."},
}

// newInstruments resolves the server-wide handles; with a nil registry
// they all stay nil.
func newInstruments(reg *monitor.Registry, numGPUs int) *instruments {
	ins := &instruments{reg: reg, gpu: make([]gpuInstruments, numGPUs)}
	if reg == nil {
		return ins
	}
	ins.depth = reg.Gauge("deepplan_queue_depth",
		"Outstanding inference runs across all GPUs, sampled at the last arrival.")
	ins.depthH = reg.Histogram("deepplan_arrival_queue_depth",
		"Queue depth observed by each arriving request.", monitor.DefaultDepthBuckets())
	ins.hostPinned = reg.Gauge("deepplan_host_pinned_bytes",
		"Bytes pinned in the host-memory tier, sampled at each fetch.")
	for k, c := range kindCounters {
		if metrics.Kind(k) != metrics.ColdStart {
			ins.kinds[k] = reg.Counter(c.name, c.help)
		}
	}
	for g := range ins.gpu {
		id := strconv.Itoa(g)
		ins.gpu[g] = gpuInstruments{
			busy: reg.Counter("deepplan_gpu_busy_seconds",
				"Seconds with at least one run outstanding on the GPU.", "gpu", id),
			busyFrac: reg.Gauge("deepplan_gpu_busy_fraction",
				"Busy seconds over elapsed sim time, set when the run finishes.", "gpu", id),
			up: reg.Gauge(monitor.MetricGPUUp,
				"1 while the GPU is serving, 0 while failed by fault injection.", "gpu", id),
			failures: reg.Counter("deepplan_gpu_failures", "Injected GPU failures.", "gpu", id),
		}
		ins.gpu[g].up.Set(1)
	}
	for k := range ins.faultEvents {
		ins.faultEvents[k] = reg.Counter("deepplan_fault_events",
			"Fault windows opened, by kind.", "kind", faults.Kind(k).String())
	}
	return ins
}

// deployInstruments resolves the per-model handles; policy and model become
// labels so cluster-level sums can slice by either.
func (ins *instruments) deployInstruments(policy Policy, model string) *depInstruments {
	d := &depInstruments{kinds: ins.kinds}
	if ins.reg == nil {
		return d
	}
	reg, p := ins.reg, string(policy)
	c := kindCounters[metrics.ColdStart]
	d.kinds[metrics.ColdStart] = reg.Counter(c.name, c.help, "model", model)
	for i, class := range [...]string{"cold", "warm"} {
		d.requests[i] = reg.Counter(monitor.MetricRequests,
			"Completed requests by serving class.", "class", class, "model", model, "policy", p)
		d.violations[i] = reg.Counter(monitor.MetricViolations,
			"Completed requests whose latency exceeded the SLO.", "class", class, "model", model, "policy", p)
		d.latency[i] = reg.Histogram("deepplan_request_latency_seconds",
			"Request latency (arrival to completion).", monitor.DefaultLatencyBuckets(),
			"class", class, "model", model, "policy", p)
	}
	return d
}

// served counts one completed request of its class (cold or warm), and an
// SLO violation if lat exceeds slo, and observes its latency.
func (d *depInstruments) served(lat, slo sim.Duration, cold bool) {
	class := 1 // warm
	if cold {
		class = 0
	}
	d.requests[class].Inc()
	if lat > slo {
		d.violations[class].Inc()
	}
	d.latency[class].Observe(lat.Seconds())
}

// finalizeMonitor publishes the end-of-run derived gauges (per-GPU busy
// fraction) over the horizon from 0 to now. Only the first call takes
// effect.
func (srv *Server) finalizeMonitor() {
	if srv.ins.reg == nil || srv.ins.final {
		return
	}
	srv.ins.final = true
	elapsed := srv.sim.Now().Sub(0).Seconds()
	for _, g := range srv.ins.gpu {
		frac := 0.0
		if elapsed > 0 {
			frac = g.busy.Value() / elapsed
		}
		g.busyFrac.Set(frac)
	}
}
