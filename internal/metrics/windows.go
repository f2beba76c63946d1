package metrics

import (
	"fmt"

	"deepplan/internal/sim"
)

// Kind is one kind of serving occurrence. A server records every occurrence
// once, into its Windows; the report totals, the per-window telemetry and
// the monitor counters all read that one count.
type Kind int

// The occurrence kinds, in table-column order.
const (
	Arrival      Kind = iota // a request's first attempt reaches the server
	ColdStart                // a cold-start run launches
	Eviction                 // an instance loses its GPU residency
	Relocation               // a warm instance moves off a congested GPU
	Deferral                 // a request parks on the waitlist for memory
	Shed                     // a request is dropped by admission or a failed retry
	Retry                    // a request is re-dispatched after a GPU failure
	Sleep                    // a warm instance is demoted to sleeping
	Wake                     // a sleeping instance is loaded back to warm
	Prewarm                  // a prewarm actuation starts
	SwapIn                   // a swapped-out instance is fetched and loaded back
	HostFetch                // a fetch-to-pin into host memory starts
	HostEviction             // the host cache tier evicts an entry
	NumKinds                 // number of kinds
)

// Windows buckets one serving run into fixed-width windows of virtual time
// (the paper reads Figure 15 per minute). Each window holds the latency
// digest of the requests that arrived in it, how many of those a cold start
// served, a count per occurrence Kind, the queue depth summed over its
// arrivals, and the GPU busy time inside it. Report.PerWindow and
// Report.Telemetry are two projections of the same table. All inputs are
// virtual-time instants, so collection is deterministic.
type Windows struct {
	width   sim.Duration
	slo     sim.Duration
	numGPUs int
	windows []window
	total   [NumKinds]int
}

type window struct {
	latency    Digest
	coldServed int
	count      [NumKinds]int
	depthSum   int64
	busy       sim.Duration
}

// NewWindows returns an empty table of width-sized windows for a server
// with numGPUs devices; slo is the goodput bound of PerWindow.
func NewWindows(width, slo sim.Duration, numGPUs int) *Windows {
	if width <= 0 {
		panic(fmt.Sprintf("metrics: window must be positive, got %v", width))
	}
	if numGPUs <= 0 {
		panic(fmt.Sprintf("metrics: windows need at least one GPU, got %d", numGPUs))
	}
	return &Windows{width: width, slo: slo, numGPUs: numGPUs}
}

// at returns the window containing t, growing the table as needed.
func (ws *Windows) at(t sim.Time) *window {
	idx := int(t / sim.Time(ws.width))
	for len(ws.windows) <= idx {
		ws.windows = append(ws.windows, window{})
	}
	return &ws.windows[idx]
}

// Note counts one occurrence of kind k at t.
func (ws *Windows) Note(t sim.Time, k Kind) {
	ws.at(t).count[k]++
	ws.total[k]++
}

// Arrival counts a request arrival at t that found depth runs outstanding
// across all GPUs.
func (ws *Windows) Arrival(t sim.Time, depth int) {
	ws.Note(t, Arrival)
	ws.at(t).depthSum += int64(depth)
}

// Served records the latency of a request that arrived at t; cold marks a
// request served by a cold-start run.
func (ws *Windows) Served(t sim.Time, latency sim.Duration, cold bool) {
	w := ws.at(t)
	w.latency.Add(latency)
	if cold {
		w.coldServed++
	}
}

// Busy credits one GPU with busy time over [from, to), split across the
// windows the interval overlaps.
func (ws *Windows) Busy(from, to sim.Time) {
	for from < to {
		w := ws.at(from)
		end := (from/sim.Time(ws.width) + 1) * sim.Time(ws.width)
		if end > to {
			end = to
		}
		w.busy += end.Sub(from)
		from = end
	}
}

// Total returns the run's count of kind k so far.
func (ws *Windows) Total(k Kind) int { return ws.total[k] }

// span is the number of windows a projection at horizon reports: every
// window up to the horizon (the end of the run), so windows after the last
// recorded occurrence appear explicitly as empty — without them a
// per-minute table silently ends at the last arrival and a quiet tail is
// indistinguishable from a truncated trace. A zero horizon reports the
// recorded windows only.
func (ws *Windows) span(horizon sim.Time) int {
	n := len(ws.windows)
	if horizon > 0 {
		if hw := int((horizon + sim.Time(ws.width) - 1) / sim.Time(ws.width)); hw > n {
			n = hw
		}
	}
	return n
}

// WindowStat is one window of the latency projection.
type WindowStat struct {
	Start      sim.Time
	Requests   int // requests that arrived in the window and were served
	ColdStarts int // of those, served by a cold-start run
	P99        sim.Duration
	Goodput    float64 // 1 for a window without requests: it missed nothing
}

// PerWindow returns the latency projection, in time order, through the
// horizon.
func (ws *Windows) PerWindow(horizon sim.Time) []WindowStat {
	out := make([]WindowStat, ws.span(horizon))
	for i := range out {
		out[i] = WindowStat{Start: sim.Time(i) * sim.Time(ws.width), Goodput: 1}
		if i < len(ws.windows) {
			w := &ws.windows[i]
			out[i].Requests = w.latency.Count()
			out[i].ColdStarts = w.coldServed
			out[i].P99 = w.latency.P99()
			out[i].Goodput = w.latency.GoodputRate(ws.slo)
		}
	}
	return out
}

// TelemetryStat is one window of the resource projection.
type TelemetryStat struct {
	Start sim.Time
	// Count holds the window's occurrences of each Kind: Count[Arrival]
	// requests arrived, Count[Eviction] instances were evicted, and so on.
	Count [NumKinds]int
	// ColdRatio is Count[ColdStart]/Count[Arrival] (0 without arrivals).
	ColdRatio float64
	// MeanQueueDepth averages the total outstanding runs across all GPUs,
	// sampled at each arrival.
	MeanQueueDepth float64
	// BusyFraction is summed GPU busy time over numGPUs×window capacity.
	BusyFraction float64
}

// Telemetry returns the resource projection of one or more servers' tables
// (cluster nodes on one clock), in time order, through the horizon. Counts
// sum across nodes; BusyFraction averages the nodes' own fractions (each
// node contributes its own capacity); MeanQueueDepth weights each node's
// mean by its arrivals. The trailing partial window's capacity ends at the
// horizon: dividing its busy time by a full window's capacity would
// understate BusyFraction in the last bucket. All tables must share one
// window width.
func Telemetry(horizon sim.Time, nodes ...*Windows) []TelemetryStat {
	if len(nodes) == 0 {
		return nil
	}
	width := nodes[0].width
	n := 0
	for _, ws := range nodes {
		if ws.width != width {
			panic(fmt.Sprintf("metrics: telemetry over mixed window widths %v and %v", width, ws.width))
		}
		n = max(n, ws.span(horizon))
	}
	out := make([]TelemetryStat, n)
	for i := range out {
		start := sim.Time(i) * sim.Time(width)
		end := start.Add(width)
		if horizon > start && horizon < end {
			end = horizon // final partial window: capacity ends at the horizon
		}
		s := &out[i]
		s.Start = start
		var busy, depth float64
		for _, ws := range nodes {
			if i >= len(ws.windows) {
				continue
			}
			w := &ws.windows[i]
			for k, c := range w.count {
				s.Count[k] += c
			}
			busy += w.busy.Seconds() / (float64(ws.numGPUs) * end.Sub(start).Seconds())
			if r := w.count[Arrival]; r > 0 {
				// The node's mean weighted by its arrivals, not depthSum
				// itself: the two can differ in the last bit, and this is
				// the arithmetic the pinned cluster tables use.
				depth += float64(w.depthSum) / float64(r) * float64(r)
			}
		}
		s.BusyFraction = busy / float64(len(nodes))
		if r := s.Count[Arrival]; r > 0 {
			s.ColdRatio = float64(s.Count[ColdStart]) / float64(r)
			s.MeanQueueDepth = depth / float64(r)
		}
	}
	return out
}
