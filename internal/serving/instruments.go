package serving

import (
	"strconv"

	"deepplan/internal/faults"
	"deepplan/internal/monitor"
)

// instruments are the server's pre-resolved monitor handles. They are
// created once at New (and per deployment at Deploy), so the per-event
// cost is a nil check plus a float add — no label formatting, no map
// lookups, no allocations (asserted by bench_test.go). The whole struct is
// nil when Config.Monitor is nil.
type instruments struct {
	reg *monitor.Registry

	arrivals *monitor.Counter
	depth    *monitor.Gauge
	depthH   *monitor.Histogram

	shed        *monitor.Counter
	evictions   *monitor.Counter
	relocations *monitor.Counter
	deferred    *monitor.Counter
	retried     *monitor.Counter

	hostEvictions *monitor.Counter
	hostFetches   *monitor.Counter
	hostPinned    *monitor.Gauge

	sleeps   *monitor.Counter
	wakes    *monitor.Counter
	prewarms *monitor.Counter
	swapIns  *monitor.Counter

	gpuBusy     []*monitor.Counter
	gpuBusyFrac []*monitor.Gauge
	gpuUp       []*monitor.Gauge
	gpuFailures []*monitor.Counter

	faultEvents [faults.NumKinds]*monitor.Counter

	// final makes the end-of-run gauge publication happen once, at the
	// first report.
	final bool
}

// depInstruments are the per-deployment handles, indexed by class
// (0 = cold-served, 1 = warm-served).
type depInstruments struct {
	requests   [2]*monitor.Counter
	violations [2]*monitor.Counter
	latency    [2]*monitor.Histogram
	coldStarts *monitor.Counter
}

func newInstruments(reg *monitor.Registry, policy Policy, numGPUs int) *instruments {
	if reg == nil {
		return nil
	}
	ins := &instruments{
		reg:      reg,
		arrivals: reg.Counter(monitor.MetricArrivals, "Requests received (first attempts, before admission)."),
		depth: reg.Gauge("deepplan_queue_depth",
			"Outstanding inference runs across all GPUs, sampled at the last arrival."),
		depthH: reg.Histogram("deepplan_arrival_queue_depth",
			"Queue depth observed by each arriving request.", monitor.DefaultDepthBuckets()),
		shed: reg.Counter(monitor.MetricShed,
			"Requests dropped by admission control or a failed retry."),
		evictions:   reg.Counter("deepplan_evictions", "Instances evicted from GPU residency."),
		relocations: reg.Counter("deepplan_relocations", "Warm instances relocated off a congested GPU."),
		deferred:    reg.Counter("deepplan_deferred", "Requests parked on the waitlist for GPU memory."),
		retried:     reg.Counter("deepplan_retried", "Requests re-dispatched after a GPU failure."),
		hostEvictions: reg.Counter("deepplan_host_evictions",
			"Entries evicted from the pinned host-memory cache tier."),
		hostFetches: reg.Counter("deepplan_host_fetches",
			"Fetch-to-pin operations for weights that were not host-resident."),
		hostPinned: reg.Gauge("deepplan_host_pinned_bytes",
			"Bytes pinned in the host-memory tier, sampled at each fetch."),
		sleeps: reg.Counter("deepplan_sleeps",
			"Warm instances demoted to the sleeping state (GPU memory released, host copy kept)."),
		wakes: reg.Counter("deepplan_wakes",
			"Sleeping instances promoted back to warm via a direct-host-access load."),
		prewarms: reg.Counter("deepplan_prewarms",
			"Prewarm actuations started by the predictive autoscaler."),
		swapIns: reg.Counter("deepplan_swap_ins",
			"Swapped-out instances promoted back to warm (host fetch + load)."),
	}
	for g := 0; g < numGPUs; g++ {
		id := strconv.Itoa(g)
		ins.gpuBusy = append(ins.gpuBusy, reg.Counter("deepplan_gpu_busy_seconds",
			"Seconds with at least one run outstanding on the GPU.", "gpu", id))
		ins.gpuBusyFrac = append(ins.gpuBusyFrac, reg.Gauge("deepplan_gpu_busy_fraction",
			"Busy seconds over elapsed sim time, set when the run finishes.", "gpu", id))
		up := reg.Gauge(monitor.MetricGPUUp,
			"1 while the GPU is serving, 0 while failed by fault injection.", "gpu", id)
		up.Set(1)
		ins.gpuUp = append(ins.gpuUp, up)
		ins.gpuFailures = append(ins.gpuFailures, reg.Counter("deepplan_gpu_failures",
			"Injected GPU failures.", "gpu", id))
	}
	for k := range ins.faultEvents {
		ins.faultEvents[k] = reg.Counter("deepplan_fault_events",
			"Fault windows opened, by kind.", "kind", faults.Kind(k).String())
	}
	return ins
}

// deployInstruments resolves the per-model request handles; policy and
// model become labels so cluster-level sums can slice by either.
func (ins *instruments) deployInstruments(policy Policy, model string) *depInstruments {
	if ins == nil {
		return nil
	}
	reg, p := ins.reg, string(policy)
	d := &depInstruments{
		coldStarts: reg.Counter("deepplan_cold_starts", "Cold-start runs launched.", "model", model),
	}
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

// finalizeMonitor publishes the end-of-run derived gauges (per-GPU busy
// fraction) over the horizon from 0 to now. Only the first call takes
// effect.
func (srv *Server) finalizeMonitor() {
	if srv.ins == nil || srv.ins.final {
		return
	}
	srv.ins.final = true
	elapsed := srv.sim.Now().Sub(0).Seconds()
	for g := range srv.gpus {
		frac := 0.0
		if elapsed > 0 {
			frac = srv.ins.gpuBusy[g].Value() / elapsed
		}
		srv.ins.gpuBusyFrac[g].Set(frac)
	}
}
