// Package serving implements the DL inference server of the paper's §5.3
// (Jeong, Baek, Ahn — "Fast and Efficient Model Serving Using Multi-GPUs
// with Direct-Host-Access", EuroSys 2023): a multi-GPU server that packs
// more model instances than GPU memory can hold, swaps inactive instances
// out to pinned host memory (LRU), and handles cold-starts with one of the
// execution policies — PipeSwitch-style pipelined loading, DeepPlan (DHA),
// or DeepPlan (PT+DHA).
//
// # Serving model (paper §5.3)
//
// As in Clockwork (and the paper), each GPU executes one inference at a
// time; requests to a warm instance queue on the GPU's execution stream.
// A request to a cold instance triggers placement (evicting least-recently
// used idle instances if needed) and is served by the cold-start run
// itself. Under the DeepPlan policies, DHA-resident layers (e.g.
// embeddings) stay in host memory permanently, shrinking the per-instance
// GPU footprint — which is why DeepPlan packs more warm instances than
// PipeSwitch (§5.3.1, Figure 13: ~124 vs ~100 on four V100s).
//
// # Beyond the paper's letter
//
// Three behaviours come from running the full serving experiments rather
// than the paper's text (each measured by an ablation; see DESIGN.md §6):
// parallel-transmission cold-starts degrade to a single-GPU fallback when
// every partner GPU is mid-load; idle warm instances relocate from a
// congested GPU to a near-idle one; and warm requests can coalesce into
// dynamic batches when Config.MaxBatch allows.
//
// # Faults and degradation
//
// With Config.Faults armed (package faults), the server reacts to injected
// hardware failure: a failed GPU's residents are force-evicted and its
// in-flight runs abort; each affected request is retried once through the
// normal dispatch path, which avoids down GPUs in placement, relocation,
// and secondary selection; a second failure sheds the request.
// Config.AdmitFactor adds SLO-aware admission control that sheds cold-start
// requests whose projected latency exceeds AdmitFactor×SLO. Reports carry
// Shed / Retried / Degraded / GPUFailures alongside the paper's metrics.
//
// Everything runs on the virtual clock (package sim): identical
// configuration and workload replay byte-identically, with tracing,
// monitoring, and fault bookkeeping all observation-only. Every serving
// occurrence (arrival, cold start, eviction, shed, ...) is counted once,
// through note, into the server's window table (metrics.Windows); the
// report totals, Report.PerWindow, Report.Telemetry and the monitor
// counters all read that one count.
package serving
