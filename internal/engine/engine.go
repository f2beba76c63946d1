// Package engine executes inference plans on the simulated multi-GPU
// server, reproducing the paper's execution coordination (§4.3.4).
//
// Each GPU has three streams, mirroring the paper's libTorch engine:
//
//   - a load stream that copies Load-method layers host→GPU in plan order;
//   - a migration stream (on secondary GPUs) that forwards arrived
//     partitions to the primary GPU over NVLink, layer by layer;
//   - an execution stream that runs layers in order, synchronizing with the
//     other streams through events (cudaEventRecord/cudaStreamWaitEvent).
//
// Direct-host-access layers skip the load stream entirely: their execution
// task issues a PCIe read flow concurrently with compute, so DHA traffic
// contends with in-flight copies on the same lane exactly as on real
// hardware — this is what produces Table 4's interference numbers.
package engine

import (
	"fmt"
	"strconv"
	"strings"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/monitor"
	"deepplan/internal/pcm"
	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/stream"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
)

// Config wires an Engine to its simulation substrate. Sim, Net, Topo and
// Cost are required; Trace is optional.
type Config struct {
	Sim  *sim.Simulator
	Net  *simnet.Network
	Topo *topology.Topology
	Cost *costmodel.Params
	// Trace, when non-nil, receives per-layer exec/load/migrate spans for
	// every completed run, attributed to the GPU that did the work
	// (secondary-partition copies land on the secondary's tracks).
	// Recording is observation-only and never perturbs the simulation.
	Trace *trace.Recorder
	// Failable enables FailGPU/RecoverGPU: the engine tracks every active
	// run's cancellable blocking points so a GPU failure can abort its runs
	// mid-flight. Off (the default) the engine allocates no tracking state
	// and behaves byte-identically to a failable engine that never fails a
	// GPU — fault support is observation-free until a fault actually fires.
	Failable bool
	// Monitor, when non-nil, receives per-GPU run counters (completed and
	// aborted runs, execution-stream seconds, host→GPU copy and DHA bytes)
	// keyed by a gpu label. Instruments resolve once at construction; the
	// per-run cost is a few counter adds. Like Trace, observation-only.
	Monitor *monitor.Registry
}

// gpuStreams is the per-device stream set.
type gpuStreams struct {
	exec      *stream.Stream
	load      *stream.Stream
	migration *stream.Stream
}

// Engine schedules inference runs onto the simulated server.
type Engine struct {
	sim   *sim.Simulator
	net   *simnet.Network
	topo  *topology.Topology
	cost  *costmodel.Params
	trace *trace.Recorder
	gpus  []gpuStreams

	// Fault state, populated only when Config.Failable is set.
	failable bool
	failed   []bool
	active   []*runState

	// names caches per-model diagnostic task names ("dha:encoder0", ...) so
	// steady-state scheduling concatenates no strings. Keyed by model pointer:
	// models are constructed once and shared across runs, so the cache stays
	// bounded by the number of distinct models the engine ever serves.
	names map[*dnn.Model]*modelNames
	// compute caches each layer's unscaled ComputeTime per (model, batch),
	// under the same bound. It relies on the cost model being read-only once
	// the engine is built (see costmodel.Params).
	compute map[computeKey][]sim.Duration

	// mon holds per-GPU monitoring instruments; nil when monitoring is off.
	mon *engInstruments
}

// engInstruments are the engine's pre-resolved monitor handles, one slot
// per GPU so the per-run path does no label work.
type engInstruments struct {
	runs, aborted, execSeconds, loadedBytes, dhaBytes []*monitor.Counter
}

// layerNames holds the pre-built stream-task names for one layer.
type layerNames struct {
	exec, dha, cp, seg string
}

// modelNames holds the pre-built task names for one model.
type modelNames struct {
	begin, finish string
	layers        []layerNames
}

// namesFor returns m's cached task names, building them on first use. The
// names are written into one pre-sized strings.Builder and sliced out of it
// (a Builder only ever appends, so earlier slices stay valid), which makes a
// fresh engine's first run of a model allocate once for its names rather
// than four times per layer.
func (e *Engine) namesFor(m *dnn.Model) *modelNames {
	if n, ok := e.names[m]; ok {
		return n
	}
	size := len("begin:finish:") + 2*len(m.Name)
	for i := range m.Layers {
		size += len("exec:dha:copy:exec-seg:") + 4*len(m.Layers[i].Name)
	}
	var b strings.Builder
	b.Grow(size)
	name := func(prefix, s string) string {
		lo := b.Len()
		b.WriteString(prefix)
		b.WriteString(s)
		return b.String()[lo:]
	}
	n := &modelNames{
		begin:  name("begin:", m.Name),
		finish: name("finish:", m.Name),
		layers: make([]layerNames, m.NumLayers()),
	}
	for i := range n.layers {
		ln := m.Layers[i].Name
		n.layers[i] = layerNames{
			exec: name("exec:", ln),
			dha:  name("dha:", ln),
			cp:   name("copy:", ln),
			seg:  name("exec-seg:", ln),
		}
	}
	if e.names == nil {
		e.names = make(map[*dnn.Model]*modelNames)
	}
	e.names[m] = n
	return n
}

// computeKey identifies one entry of the compute-time cache.
type computeKey struct {
	m     *dnn.Model
	batch int
}

// computeFor returns the unscaled ComputeTime of every layer of m at the
// given batch, computing it on first use.
func (e *Engine) computeFor(m *dnn.Model, batch int) []sim.Duration {
	k := computeKey{m, batch}
	if c, ok := e.compute[k]; ok {
		return c
	}
	c := make([]sim.Duration, m.NumLayers())
	for i := range c {
		c[i] = e.cost.ComputeTime(&m.Layers[i], batch)
	}
	if e.compute == nil {
		e.compute = make(map[computeKey][]sim.Duration)
	}
	e.compute[k] = c
	return c
}

// New returns an Engine over the given substrate.
func New(cfg Config) *Engine {
	if cfg.Sim == nil || cfg.Net == nil || cfg.Topo == nil || cfg.Cost == nil {
		panic("engine: incomplete config")
	}
	e := &Engine{sim: cfg.Sim, net: cfg.Net, topo: cfg.Topo, cost: cfg.Cost, trace: cfg.Trace,
		failable: cfg.Failable}
	if cfg.Failable {
		e.failed = make([]bool, cfg.Topo.NumGPUs())
	}
	for i := 0; i < cfg.Topo.NumGPUs(); i++ {
		e.gpus = append(e.gpus, gpuStreams{
			exec:      stream.New(cfg.Sim, fmt.Sprintf("gpu%d/exec", i)),
			load:      stream.New(cfg.Sim, fmt.Sprintf("gpu%d/load", i)),
			migration: stream.New(cfg.Sim, fmt.Sprintf("gpu%d/migration", i)),
		})
	}
	if reg := cfg.Monitor; reg != nil {
		m := &engInstruments{}
		for i := 0; i < cfg.Topo.NumGPUs(); i++ {
			g := strconv.Itoa(i)
			m.runs = append(m.runs, reg.Counter("deepplan_engine_runs",
				"Completed inference runs by primary GPU.", "gpu", g))
			m.aborted = append(m.aborted, reg.Counter("deepplan_engine_aborted_runs",
				"Runs aborted mid-flight by an injected GPU failure.", "gpu", g))
			m.execSeconds = append(m.execSeconds, reg.Counter("deepplan_engine_exec_seconds",
				"Execution-stream occupancy (first layer start to finish).", "gpu", g))
			m.loadedBytes = append(m.loadedBytes, reg.Counter("deepplan_engine_loaded_bytes",
				"Host→GPU copy traffic.", "gpu", g))
			m.dhaBytes = append(m.dhaBytes, reg.Counter("deepplan_engine_dha_bytes",
				"Direct-host-access traffic.", "gpu", g))
		}
		e.mon = m
	}
	return e
}

// Spec describes one inference to run.
type Spec struct {
	Model *dnn.Model
	Plan  *plan.Plan
	// Batch overrides the plan's batch size when positive.
	Batch int
	// Primary is the GPU that executes the inference.
	Primary int
	// Secondaries are the GPUs receiving partitions 1..N-1, in order.
	// Required iff the plan has multiple partitions.
	Secondaries []int
	// Warm skips all loading: Load-method layers are already resident.
	// DHA-method layers still read host memory — DeepPlan keeps them there
	// permanently, which is how it packs more instances per GPU (§5.3).
	Warm bool
	// ResidentMask, when non-nil, marks individual layers as already
	// resident on the primary GPU: they are executed in place without
	// transmission while the rest of the model streams in per inference.
	// This is the partial-residency mode behind serving models larger than
	// GPU memory (§7 future work). Ignored when Warm is set. Must match
	// the model's layer count.
	ResidentMask []bool
	// PCM, when non-nil, accumulates PCIe/NVLink traffic for this run.
	PCM *pcm.Counters
	// ComputeScale, when in (0,1), scales every layer's compute duration.
	// The autoregressive serving mode uses it to price a prefill over a
	// prompt shorter than the model's calibrated sequence length. Copy and
	// DHA traffic are unscaled (weight movement is token-independent).
	// Zero and one both mean "unscaled", exactly — no float round-trip —
	// so single-shot runs stay byte-identical.
	ComputeScale float64
	// OnDone receives the result when the last layer retires.
	OnDone func(*Result)
}

// LayerTiming records one layer's lifecycle within a run. It holds no
// pointers, so the garbage collector never scans a run's Timings; the
// layer's name is Result.LayerName(Index).
type LayerTiming struct {
	Index     int
	Method    plan.Method
	Partition int

	// LoadStart/LoadDone bound the host→GPU copy (zero for DHA, warm,
	// and parameterless layers). For secondary partitions this is the copy
	// onto the secondary GPU.
	LoadStart, LoadDone sim.Time
	// AvailAt is when the layer became usable on the primary GPU (after
	// NVLink forwarding for secondary partitions).
	AvailAt sim.Time
	// ExecStart/ExecDone bound execution on the primary GPU.
	ExecStart, ExecDone sim.Time
	// Stall is execution-stream idle time waiting for this layer.
	Stall sim.Duration
}

// Result summarizes one completed inference.
type Result struct {
	Model   string
	Mode    string
	Batch   int
	Primary int
	// Secondaries are the GPUs that received partitions 1..N-1 (aliases the
	// spec's slice; empty for single-partition and warm runs). Needed to
	// attribute per-partition load/migrate work to the right GPU.
	Secondaries []int
	Warm        bool
	// Aborted marks a run cut short by a GPU failure: Finish is the abort
	// instant, Timings cover only completed work, and no trace is emitted.
	// The serving layer retries aborted requests on a surviving GPU.
	Aborted   bool
	Submitted sim.Time
	// ExecBegin is when the execution stream reached this run's first layer
	// (queueing behind earlier runs excluded from stalls).
	ExecBegin sim.Time
	Finish    sim.Time
	Timings   []LayerTiming

	// TotalStall is summed per-layer stall (the paper's Figure 2 metric).
	TotalStall sim.Duration
	// BytesLoaded is host→GPU copy traffic; BytesDHA is direct-host-access
	// traffic; BytesNVLink is forwarding traffic.
	BytesLoaded, BytesDHA, BytesNVLink float64
	// LoadWindow bounds all PCIe copy activity of this run.
	LoadWindowStart, LoadWindowEnd sim.Time

	// layers are the run's model layers, backing LayerName.
	layers []dnn.Layer
}

// LayerName returns the name of the model layer that Timings[i] records.
func (r *Result) LayerName(i int) string { return r.layers[i].Name }

// Latency is submission-to-finish time.
func (r *Result) Latency() sim.Duration { return r.Finish.Sub(r.Submitted) }

// ExecTime is the execution-stream occupancy (first layer start to finish).
func (r *Result) ExecTime() sim.Duration { return r.Finish.Sub(r.ExecBegin) }

// AvgPCIeBandwidth is copy bytes over the copy window — the quantity the
// paper reports in Table 2. Zero if the run loaded nothing.
func (r *Result) AvgPCIeBandwidth() float64 {
	if r.BytesLoaded == 0 || r.LoadWindowEnd <= r.LoadWindowStart {
		return 0
	}
	return r.BytesLoaded / r.LoadWindowEnd.Sub(r.LoadWindowStart).Seconds()
}

// Start validates the spec and schedules the run. The returned error covers
// structural problems only; execution itself proceeds inside the simulator.
func (e *Engine) Start(spec Spec) error {
	if spec.Model == nil || spec.Plan == nil {
		return fmt.Errorf("engine: spec needs a model and a plan")
	}
	if err := spec.Plan.Validate(spec.Model); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if spec.Primary < 0 || spec.Primary >= len(e.gpus) {
		return fmt.Errorf("engine: primary GPU %d out of range", spec.Primary)
	}
	if e.failable && e.failed[spec.Primary] {
		return fmt.Errorf("engine: primary GPU %d is failed", spec.Primary)
	}
	want := spec.Plan.NumParts - 1
	if spec.Warm {
		want = 0 // nothing is transmitted on a warm run
	}
	if got := len(spec.Secondaries); got != want {
		return fmt.Errorf("engine: plan %s/%s needs %d secondaries, got %d",
			spec.Plan.ModelName, spec.Plan.Mode, want, got)
	}
	for _, s := range spec.Secondaries {
		if s < 0 || s >= len(e.gpus) || s == spec.Primary {
			return fmt.Errorf("engine: bad secondary GPU %d", s)
		}
		if !e.topo.HasNVLink(s, spec.Primary) {
			return fmt.Errorf("engine: no NVLink from GPU %d to primary %d", s, spec.Primary)
		}
		if e.failable && e.failed[s] {
			return fmt.Errorf("engine: secondary GPU %d is failed", s)
		}
	}
	if spec.ResidentMask != nil && len(spec.ResidentMask) != spec.Model.NumLayers() {
		return fmt.Errorf("engine: resident mask has %d entries for %d layers",
			len(spec.ResidentMask), spec.Model.NumLayers())
	}
	batch := spec.Batch
	if batch < 1 {
		batch = spec.Plan.Batch
	}
	if batch < 1 {
		batch = 1
	}
	e.schedule(spec, batch)
	return nil
}

// resident reports whether layer i needs no transmission in this run.
func resident(spec *Spec, i int) bool {
	return spec.Warm || (spec.ResidentMask != nil && spec.ResidentMask[i])
}

// scaleDur applies a spec's ComputeScale to a compute duration. Scale 0 and
// 1 return d unchanged so the common single-shot path never round-trips
// through float64.
func scaleDur(d sim.Duration, s float64) sim.Duration {
	if s == 0 || s == 1 {
		return d
	}
	return sim.Duration(float64(d) * s)
}

type runState struct {
	res *Result
	e   *Engine

	// steps are the run's execution-stream tasks in order; cur indexes the
	// one in flight and prevDone is when the previous one retired. run,
	// fire, read and tail are the stream task and callbacks every step
	// shares (see startStep). hostPath carries DHA reads; compute and scale
	// price the layers.
	steps      []execStep
	cur        int
	prevDone   sim.Time
	run        stream.Task
	fire, tail func()
	read       func(sim.Time)
	hostPath   []*simnet.Link
	compute    []sim.Duration
	scale      float64

	// copies is the run's transmission slab, one op per transmitted layer
	// in layer order; lanes feed the ops to their streams (see copyLane).
	copies []copyOp
	lanes  []copyLane

	// Fault-abort bookkeeping, used only on failable engines. aborted makes
	// every not-yet-started task of the run a no-op; awaits holds the run's
	// in-flight blocking points so an abort can cancel them; index is the
	// run's slot in Engine.active (-1 once finished or aborted); onDone is
	// the spec's completion callback, also invoked (with res.Aborted set)
	// when the run aborts.
	aborted bool
	awaits  []*await
	index   int
	onDone  func(*Result)

	// task is the blocking point of a StartTask task; runs use their steps'.
	task await
}

// await is one cancellable blocking point of a run: a pending timer, an
// in-flight network flow, or both (a DHA step's compute timer overlaps its
// reads, and its tail timer follows them). done is the owning stream
// task's completion callback. timer is cleared when it fires, so an abort
// never cancels a recycled sim event; aborting a finished flow is a no-op. Exactly one of the normal
// completion and the abort path (abortRun) runs: a completion marks the
// await settled so an abort skips it, and once a run is aborted its
// callbacks return at once. Awaits live in their run's steps, copy ops or
// task slot; a failable engine also lists them in runState.awaits.
type await struct {
	settled bool
	done    func()
	timer   *sim.Event
	flow    *simnet.Flow
}

// cancel undoes whatever of aw is still pending.
func (e *Engine) cancel(aw *await) {
	e.net.Abort(aw.flow)
	if aw.timer != nil {
		e.sim.Cancel(aw.timer)
	}
}

// track adds rs to the active-run registry (failable engines only).
func (e *Engine) track(rs *runState) {
	rs.index = len(e.active)
	e.active = append(e.active, rs)
}

// untrack removes rs from the registry by swapping the last entry into its
// slot. Registry order is not meaningful; abort order is still deterministic
// because the registry's history is itself a pure function of the event
// sequence.
func (e *Engine) untrack(rs *runState) {
	i := rs.index
	if i < 0 {
		return
	}
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.active[i].index = i
	e.active[last] = nil
	e.active = e.active[:last]
	rs.index = -1
}

// FailGPU takes a GPU out of service: every active run using it as primary
// or secondary aborts immediately (its OnDone fires with Result.Aborted
// set), and Start rejects new runs on it until RecoverGPU. It panics on a
// non-failable engine — fault injection requires Config.Failable so that
// fault-free simulations never pay for the tracking state.
func (e *Engine) FailGPU(gpu int) {
	if !e.failable {
		panic("engine: FailGPU on an engine without Config.Failable")
	}
	if gpu < 0 || gpu >= len(e.gpus) {
		panic(fmt.Sprintf("engine: FailGPU(%d) out of range", gpu))
	}
	if e.failed[gpu] {
		return
	}
	e.failed[gpu] = true
	// Collect first: aborting mutates the registry, and an abort's OnDone
	// may even start new (retried) runs.
	var victims []*runState
	for _, rs := range e.active {
		if rs.res.Primary == gpu {
			victims = append(victims, rs)
			continue
		}
		for _, s := range rs.res.Secondaries {
			if s == gpu {
				victims = append(victims, rs)
				break
			}
		}
	}
	for _, rs := range victims {
		e.abortRun(rs)
	}
}

// RecoverGPU returns a failed GPU to service. In-flight state needs no
// repair: the failure already aborted the GPU's runs and its streams were
// drained by the abort.
func (e *Engine) RecoverGPU(gpu int) {
	if !e.failable {
		panic("engine: RecoverGPU on an engine without Config.Failable")
	}
	if gpu < 0 || gpu >= len(e.gpus) {
		panic(fmt.Sprintf("engine: RecoverGPU(%d) out of range", gpu))
	}
	e.failed[gpu] = false
}

// GPUFailed reports whether a GPU is currently out of service.
func (e *Engine) GPUFailed(gpu int) bool {
	return e.failable && gpu >= 0 && gpu < len(e.failed) && e.failed[gpu]
}

// abortRun cancels every in-flight blocking point of rs and completes the
// run as aborted. Cancelled stream tasks call their done() so the streams
// keep draining: queued tasks of the aborted run see rs.aborted and pass
// through instantly, Record tasks still fire their events, and therefore no
// Wait on any stream can hang on an aborted producer.
func (e *Engine) abortRun(rs *runState) {
	if rs.aborted || rs.index < 0 {
		return
	}
	rs.aborted = true
	e.untrack(rs)
	for i := 0; i < len(rs.awaits); i++ {
		aw := rs.awaits[i]
		if aw.settled {
			continue
		}
		aw.settled = true
		e.cancel(aw)
		aw.done()
	}
	rs.res.Aborted = true
	rs.recordArrivals()
	rs.res.Finish = e.sim.Now()
	e.finalize(rs.res)
	if rs.onDone != nil {
		rs.onDone(rs.res)
	}
}

// transmits reports whether layer i is copied to the GPU in this run.
func transmits(spec *Spec, i int) bool {
	return !resident(spec, i) && spec.Plan.Layers[i].Method == plan.Load && spec.Model.Layers[i].HasParams()
}

func (e *Engine) schedule(spec Spec, batch int) {
	m := spec.Model
	p := spec.Plan
	names := e.namesFor(m)
	compute := e.computeFor(m, batch)
	scale := spec.ComputeScale
	primary := e.gpus[spec.Primary]
	hostPath := e.topo.HostToGPUPath(spec.Primary)

	rs := &runState{res: &Result{
		Model:       m.Name,
		Mode:        p.Mode,
		Batch:       batch,
		Primary:     spec.Primary,
		Secondaries: spec.Secondaries,
		Warm:        spec.Warm,
		Submitted:   e.sim.Now(),
		Timings:     make([]LayerTiming, m.NumLayers()),
		layers:      m.Layers,
	}, e: e, cur: -1, hostPath: hostPath, compute: compute, scale: scale,
		index: -1, onDone: spec.OnDone}
	if e.failable {
		e.track(rs)
	}
	timings := rs.res.Timings
	for i := range timings {
		t := &timings[i]
		t.Index = i
		t.Method = p.Layers[i].Method
		t.Partition = p.Layers[i].Partition
	}

	// Phase 1: schedule transmissions.
	ncopy := 0
	for i := range m.Layers {
		if transmits(&spec, i) {
			ncopy++
		}
	}
	if ncopy > 0 {
		rs.copies = make([]copyOp, ncopy)
		rs.lanes = make([]copyLane, 2*p.NumParts-1)
		rs.lanes[0].init(rs, 0, false, hostPath)
		for part := 1; part < p.NumParts; part++ {
			secID := spec.Secondaries[part-1]
			nvPath, _ := e.topo.GPUToGPUPath(secID, spec.Primary)
			rs.lanes[2*part-1].init(rs, part, false, e.topo.HostToGPUPath(secID))
			rs.lanes[2*part].init(rs, part, true, nvPath)
		}
	}
	k := 0
	for i := range m.Layers {
		if !transmits(&spec, i) {
			continue
		}
		op := &rs.copies[k]
		k++
		part := p.Layers[i].Partition
		*op = copyOp{layer: i, part: part, bytes: float64(m.Layers[i].ParamBytes), name: names.layers[i].cp}
		rs.res.BytesLoaded += op.bytes
		if spec.PCM != nil {
			spec.PCM.AddLoad(op.bytes)
		}
		if part == 0 {
			primary.load.Submit(op.name, rs.lanes[0].run)
			primary.load.Record(&op.arrive)
			continue
		}
		sec := e.gpus[spec.Secondaries[part-1]]
		sec.load.Submit(op.name, rs.lanes[2*part-1].run)
		sec.load.Record(&op.landed)
		// Forward over NVLink once landed on the secondary.
		rs.res.BytesNVLink += op.bytes
		if spec.PCM != nil {
			spec.PCM.AddNVLink(op.bytes)
		}
		sec.migration.Wait(&op.landed)
		sec.migration.Submit("forward", rs.lanes[2*part].run)
		sec.migration.Record(&op.arrive)
	}

	// Phase 2: schedule execution on the primary GPU. plainCompute reports
	// whether layer i needs neither an arrival wait nor a PCIe flow: it is
	// pure GPU compute. Contiguous plain-compute layers are coalesced into
	// one step — semantically identical (the durations sum) but far cheaper
	// to simulate, which matters for the million-request trace replays of
	// Figure 15.
	plainCompute := func(i int) bool {
		if p.Layers[i].Method == plan.DHA && m.Layers[i].HasParams() {
			return false
		}
		return !transmits(&spec, i)
	}
	nsteps := 0
	for i := range m.Layers {
		// A step starts at every other layer and at the head of every run
		// of plain-compute layers.
		if !plainCompute(i) || i == 0 || !plainCompute(i-1) {
			nsteps++
		}
	}
	rs.steps = make([]execStep, nsteps)
	rs.run, rs.fire, rs.read, rs.tail = rs.startStep, rs.onCompute, rs.onRead, rs.onTail
	primary.exec.Do(names.begin, rs.begin)
	baseline := p.Mode == "baseline"
	k = 0 // next copy op, in layer order
	for i, s := 0, 0; i < m.NumLayers(); s++ {
		st := &rs.steps[s]
		if plainCompute(i) {
			j := i
			var total sim.Duration
			for j < m.NumLayers() && plainCompute(j) {
				total += scaleDur(compute[j], scale)
				j++
			}
			*st = execStep{lo: i, hi: j, d: total}
			primary.exec.Submit(names.layers[i].seg, rs.run)
			i = j
			continue
		}
		if transmits(&spec, i) {
			if baseline {
				primary.exec.Wait(&rs.copies[ncopy-1].arrive)
			} else {
				primary.exec.Wait(&rs.copies[k].arrive)
			}
			k++
		}
		*st = execStep{lo: i, hi: i + 1, d: scaleDur(compute[i], scale)}
		name := names.layers[i].exec
		if p.Layers[i].Method == plan.DHA {
			name = names.layers[i].dha
			st.dha, st.name, st.dhaBytes = true, name, e.cost.DHABytes(&m.Layers[i], batch)
			rs.res.BytesDHA += st.dhaBytes
			if spec.PCM != nil {
				spec.PCM.AddDHA(st.dhaBytes)
			}
		}
		primary.exec.Submit(name, rs.run)
		i++
	}
	primary.exec.Do(names.finish, rs.finish)
}

// execStep is one task of a run on the primary GPU's execution stream:
// either compute over layers [lo, hi) taking d, or (dha set) the single
// DHA layer lo, whose compute d overlaps a PCIe read of dhaBytes and is
// followed by the fixed DHA overhead.
type execStep struct {
	lo, hi int
	d      sim.Duration
	start  sim.Time

	dha      bool
	name     string // DHA read flow name, the cached "dha:<layer>"
	dhaBytes float64
	pending  int // DHA: compute and reads still outstanding
	aw       await
}

// begin is the run's first execution-stream task.
func (rs *runState) begin() {
	rs.res.ExecBegin = rs.e.sim.Now()
	rs.prevDone = rs.res.ExecBegin
}

// startStep is the stream task of every step: the execution stream runs a
// run's steps one at a time in order, so it moves the cursor to the next
// step and starts it, and the callbacks below always belong to that step.
func (rs *runState) startStep(done func()) {
	rs.cur++
	if rs.aborted {
		done()
		return
	}
	e, st := rs.e, &rs.steps[rs.cur]
	st.aw.done = done
	if e.failable {
		rs.awaits = append(rs.awaits, &st.aw)
	}
	st.start = e.sim.Now()
	rs.res.Timings[st.lo].Stall = st.start.Sub(rs.prevDone)
	if st.dha {
		st.pending = 2
		st.aw.flow = e.net.StartFlow(st.name, rs.hostPath, st.dhaBytes, rs.read)
	}
	st.aw.timer = e.sim.After(st.d, rs.fire)
}

// onCompute ends a step's compute. A compute step is done: each of its
// layers gets its window in order.
func (rs *runState) onCompute() {
	if rs.aborted {
		return
	}
	st := &rs.steps[rs.cur]
	st.aw.timer = nil
	if st.dha {
		rs.dhaPartDone(st)
		return
	}
	st.aw.settled = true
	at := st.start
	for k := st.lo; k < st.hi; k++ {
		t := &rs.res.Timings[k]
		t.ExecStart = at
		at = at.Add(scaleDur(rs.compute[k], rs.scale))
		t.ExecDone = at
	}
	rs.prevDone = rs.e.sim.Now()
	st.aw.done()
}

// onRead ends a DHA step's PCIe reads.
func (rs *runState) onRead(sim.Time) {
	if rs.aborted {
		return
	}
	rs.dhaPartDone(&rs.steps[rs.cur])
}

// dhaPartDone counts down a DHA step's compute and reads; once both are
// done, the fixed DHA penalty follows.
func (rs *runState) dhaPartDone(st *execStep) {
	st.pending--
	if st.pending == 0 {
		// The compute timer has fired, so the tail reuses its slot.
		st.aw.timer = rs.e.sim.After(rs.e.cost.DHAFixedOverhead, rs.tail)
	}
}

// onTail ends a DHA step.
func (rs *runState) onTail() {
	if rs.aborted {
		return
	}
	st := &rs.steps[rs.cur]
	st.aw.timer = nil
	st.aw.settled = true
	t := &rs.res.Timings[st.lo]
	t.ExecStart = st.start
	t.ExecDone = rs.e.sim.Now()
	rs.prevDone = t.ExecDone
	st.aw.done()
}

// finish is the run's last execution-stream task.
func (rs *runState) finish() {
	if rs.aborted {
		// abortRun already finalized and reported the run.
		return
	}
	e := rs.e
	e.untrack(rs)
	rs.res.Finish = e.sim.Now()
	rs.recordArrivals()
	e.finalize(rs.res)
	if e.trace != nil {
		rs.res.EmitTrace(e.trace)
	}
	if rs.onDone != nil {
		rs.onDone(rs.res)
	}
}

// copyOp is one transmitted layer of a run: a host→GPU copy onto its
// partition's GPU and, for a secondary partition, the NVLink forward to the
// primary. Each step is a fixed per-copy overhead, then a network flow.
type copyOp struct {
	layer int
	part  int
	bytes float64
	name  string // cached "copy:<layer>" task and flow name
	// landed fires when a secondary partition's copy is done; arrive fires
	// when the layer is usable on the primary GPU.
	landed, arrive stream.Event
	// load and fwd are the copy's and the forward's blocking points.
	load, fwd await
}

// copyLane feeds one stream the copy steps of one run's ops: the primary's
// load stream (lane 0), or for partition p ≥ 1 the secondary's load stream
// (lane 2p-1) and its migration stream (lane 2p, forward steps). A stream
// runs its tasks one at a time in submission order, so every callback of a
// lane belongs to the op at its cursor, and three closures per lane serve
// all its ops.
type copyLane struct {
	rs      *runState
	part    int
	forward bool
	path    []*simnet.Link
	cur     int // index into rs.copies of the op in flight
	run     stream.Task
	fire    func()
	land    func(sim.Time)
}

// init sets up a lane of rs and binds its three callbacks.
func (l *copyLane) init(rs *runState, part int, forward bool, path []*simnet.Link) {
	*l = copyLane{rs: rs, part: part, forward: forward, path: path, cur: -1}
	l.run, l.fire, l.land = l.start, l.onTimer, l.onFlow
}

// step returns the in-flight op's blocking point on this lane.
func (l *copyLane) step() (*copyOp, *await) {
	op := &l.rs.copies[l.cur]
	if l.forward {
		return op, &op.fwd
	}
	return op, &op.load
}

// start is the stream task: it moves the cursor to the lane's next op and
// starts that op's overhead timer.
func (l *copyLane) start(done func()) {
	rs := l.rs
	for l.cur++; rs.copies[l.cur].part != l.part; l.cur++ {
	}
	if rs.aborted {
		done()
		return
	}
	e := rs.e
	op, aw := l.step()
	aw.done = done
	if e.failable {
		rs.awaits = append(rs.awaits, aw)
	}
	overhead := e.topo.PerCopyOverheadNanos
	if l.forward {
		overhead = e.topo.NVLinkCopyOverheadNanos
	} else {
		rs.res.Timings[op.layer].LoadStart = e.sim.Now()
	}
	aw.timer = e.sim.After(sim.Duration(overhead), l.fire)
}

// onTimer ends the overhead and starts the op's flow.
func (l *copyLane) onTimer() {
	if l.rs.aborted {
		return
	}
	op, aw := l.step()
	aw.timer = nil
	name := op.name
	if l.forward {
		name = "forward"
	}
	aw.flow = l.rs.e.net.StartFlow(name, l.path, op.bytes, l.land)
}

// onFlow completes the step when its flow's last byte arrives.
func (l *copyLane) onFlow(at sim.Time) {
	if l.rs.aborted {
		return
	}
	op, aw := l.step()
	aw.settled = true
	if !l.forward {
		l.rs.res.Timings[op.layer].LoadDone = at
	}
	aw.done()
}

// recordArrivals fills AvailAt for every copied layer whose arrival event
// has fired. It runs when the run finishes, by which point every arrival of
// a completed run has fired, or when it aborts, leaving AvailAt zero for
// layers still in flight.
func (rs *runState) recordArrivals() {
	for i := range rs.copies {
		op := &rs.copies[i]
		if op.arrive.Fired() {
			rs.res.Timings[op.layer].AvailAt = op.arrive.FiredAt()
		}
	}
}

// finalize derives the aggregate result fields from per-layer timings.
func (e *Engine) finalize(r *Result) {
	first, last := sim.MaxTime, sim.Time(0)
	for i := range r.Timings {
		t := &r.Timings[i]
		r.TotalStall += t.Stall
		if t.LoadDone > 0 {
			if t.LoadStart < first {
				first = t.LoadStart
			}
			if t.LoadDone > last {
				last = t.LoadDone
			}
		}
	}
	if last > 0 {
		r.LoadWindowStart, r.LoadWindowEnd = first, last
	}
	if m := e.mon; m != nil {
		g := r.Primary
		if r.Aborted {
			m.aborted[g].Inc()
		} else {
			m.runs[g].Inc()
			m.execSeconds[g].Add(r.ExecTime().Seconds())
		}
		m.loadedBytes[g].Add(r.BytesLoaded)
		m.dhaBytes[g].Add(r.BytesDHA)
	}
}

// EmitTrace records the run's per-layer timeline into rec: execution spans
// on the primary GPU's exec track, host→GPU copy spans on the load track of
// the GPU that received each partition, and NVLink forwarding spans on the
// secondary's migration track. It is called automatically for engines built
// with Config.Trace; cmd/deepplan calls it directly to export a standalone
// Result. Safe on a nil recorder.
func (r *Result) EmitTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	for i := range r.Timings {
		t := &r.Timings[i]
		if t.ExecDone > t.ExecStart {
			rec.SpanArgs(r.Primary, trace.TIDExec, "exec", r.LayerName(i), t.ExecStart, t.ExecDone,
				trace.Str("method", t.Method.String()),
				trace.Float("stall_us", float64(t.Stall)/1e3),
				trace.Int("partition", t.Partition),
			)
		}
		if t.LoadDone > t.LoadStart {
			loadGPU := r.Primary
			if t.Partition > 0 && t.Partition-1 < len(r.Secondaries) {
				loadGPU = r.Secondaries[t.Partition-1]
			}
			rec.Span(loadGPU, trace.TIDLoad, "load", "copy "+r.LayerName(i), t.LoadStart, t.LoadDone)
		}
		if t.Partition > 0 && t.LoadDone > 0 && t.AvailAt > t.LoadDone &&
			t.Partition-1 < len(r.Secondaries) {
			rec.Span(r.Secondaries[t.Partition-1], trace.TIDMigrate, "migrate",
				"forward "+r.LayerName(i), t.LoadDone, t.AvailAt)
		}
	}
}

// ExecIdle reports whether a GPU's execution stream is idle (used by the
// serving scheduler).
func (e *Engine) ExecIdle(gpu int) bool { return e.gpus[gpu].exec.Idle() }

// StartTask occupies a GPU's execution stream with one opaque task of the
// given duration — the serving layer's decode iterations, which have no
// per-layer structure worth simulating individually. The task queues FIFO
// behind (and ahead of) ordinary runs on the same stream, so prefills and
// decode iterations serialize exactly like kernels on one CUDA stream. On a
// failable engine the task is tracked like a run: FailGPU on its GPU aborts
// it and onDone fires with Result.Aborted set.
func (e *Engine) StartTask(gpu int, name string, d sim.Duration, onDone func(*Result)) error {
	if gpu < 0 || gpu >= len(e.gpus) {
		return fmt.Errorf("engine: task GPU %d out of range", gpu)
	}
	if e.failable && e.failed[gpu] {
		return fmt.Errorf("engine: task GPU %d is failed", gpu)
	}
	rs := &runState{res: &Result{
		Model:     name,
		Mode:      "task",
		Primary:   gpu,
		Submitted: e.sim.Now(),
	}, index: -1, onDone: onDone}
	if e.failable {
		e.track(rs)
	}
	ex := e.gpus[gpu].exec
	ex.Submit(name, func(done func()) {
		if rs.aborted {
			done()
			return
		}
		rs.res.ExecBegin = e.sim.Now()
		aw := &rs.task
		aw.done = done
		if e.failable {
			rs.awaits = append(rs.awaits, aw)
		}
		aw.timer = e.sim.After(d, func() {
			if rs.aborted {
				return
			}
			aw.timer = nil
			aw.settled = true
			done()
		})
	})
	ex.Do(name, func() {
		if rs.aborted {
			// abortRun already finalized and reported the task.
			return
		}
		e.untrack(rs)
		rs.res.Finish = e.sim.Now()
		e.finalize(rs.res)
		if rs.onDone != nil {
			rs.onDone(rs.res)
		}
	})
	return nil
}

// RunOnce builds a fresh simulator+network around the given topology, runs a
// single inference to completion, and returns its result. The topology must
// be freshly constructed (its links carry simulation state).
func RunOnce(topo *topology.Topology, cost *costmodel.Params, spec Spec) (*Result, error) {
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: cost})
	var res *Result
	prev := spec.OnDone
	spec.OnDone = func(r *Result) {
		res = r
		if prev != nil {
			prev(r)
		}
	}
	if err := e.Start(spec); err != nil {
		return nil, err
	}
	s.Run()
	if res == nil {
		return nil, fmt.Errorf("engine: run did not complete")
	}
	return res, nil
}
