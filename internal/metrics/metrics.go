// Package metrics provides the latency/goodput accounting the paper's
// serving evaluation reports: percentile digests, SLO goodput, cold-start
// ratios, and the per-window table (Figure 13–15) in which a server counts
// every serving occurrence once (windows.go).
package metrics

import (
	"math"
	"sort"

	"deepplan/internal/sim"
)

// Digest collects latency samples and answers percentile queries exactly
// (samples are retained; serving runs produce at most a few million).
type Digest struct {
	samples []float64 // seconds
	sorted  bool
}

// Add records one latency sample.
func (d *Digest) Add(v sim.Duration) {
	d.samples = append(d.samples, v.Seconds())
	d.sorted = false
}

// Count returns the number of samples.
func (d *Digest) Count() int { return len(d.samples) }

// Quantile returns the q-th quantile (0 <= q <= 1) using the
// nearest-rank method, or 0 with no samples.
func (d *Digest) Quantile(q float64) sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if q <= 0 {
		return secs(d.samples[0])
	}
	if q >= 1 {
		return secs(d.samples[len(d.samples)-1])
	}
	// The epsilon guards the exact-boundary case: when q*n is an integer in
	// exact arithmetic (e.g. 0.28*25 = 7) the float product can land just
	// above it (7.000000000000001), and a bare Ceil would pick the next rank.
	rank := int(math.Ceil(q*float64(len(d.samples))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return secs(d.samples[rank])
}

// P99 is Quantile(0.99), the paper's headline tail metric.
func (d *Digest) P99() sim.Duration { return d.Quantile(0.99) }

// P50 is the median.
func (d *Digest) P50() sim.Duration { return d.Quantile(0.50) }

// Mean returns the average latency.
func (d *Digest) Mean() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.samples {
		sum += v
	}
	return secs(sum / float64(len(d.samples)))
}

// Max returns the largest sample.
func (d *Digest) Max() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if d.sorted {
		return secs(d.samples[len(d.samples)-1])
	}
	max := d.samples[0]
	for _, v := range d.samples[1:] {
		if v > max {
			max = v
		}
	}
	return secs(max)
}

// GoodputRate returns the fraction of samples within the SLO. An empty
// digest reports 1.0: a window in which no request arrived missed nothing,
// and rendering it as 0% goodput would read as a total SLO violation in the
// per-window tables (render request-free windows as "-" where the request
// count is available).
func (d *Digest) GoodputRate(slo sim.Duration) float64 {
	if len(d.samples) == 0 {
		return 1
	}
	bound := slo.Seconds()
	n := 0
	for _, v := range d.samples {
		if v <= bound {
			n++
		}
	}
	return float64(n) / float64(len(d.samples))
}

// Merge folds another digest's samples into d (cluster-level aggregation:
// per-node digests merge into one cluster-wide percentile view).
func (d *Digest) Merge(o *Digest) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

// secs converts float seconds back to a Duration, rounding to the nearest
// nanosecond (plain truncation loses 1 ns on values like 31578.999...).
func secs(s float64) sim.Duration { return sim.Duration(math.Round(s * 1e9)) }
