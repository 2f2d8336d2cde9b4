package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// intervalMedian turns cumulative (time, count) samples into per-interval
// rates and returns their median in events per second, plus the number
// of intervals. Reporting the median of many short intervals rather
// than total/elapsed is what keeps a single scheduler hiccup or GC
// cycle from moving the metric.
func intervalMedian(nanos []int64, counts []uint64) (perSecond float64, intervals int) {
	rates := intervalRates(nanos, counts)
	return median(rates), len(rates)
}

// intervalRates are the per-interval rates, events per second.
func intervalRates(nanos []int64, counts []uint64) []float64 {
	rates := make([]float64, 0, len(nanos))
	for i := 1; i < len(nanos) && i < len(counts); i++ {
		dt := nanos[i] - nanos[i-1]
		if dt <= 0 {
			continue
		}
		rates = append(rates, float64(counts[i]-counts[i-1])/(float64(dt)/1e9))
	}
	return rates
}

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// highestSupported returns the highest candidate percentile that has at
// least ten samples beyond it (n*(1-p) >= 10), or 0.5 when the sample
// is too small for any of them.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		// The epsilon keeps 1000*(1-0.99) = 9.999999999999998 from
		// disqualifying p99 on exactly 1000 samples.
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// latencySummary is what one latency recorder reduces to.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
	// TailP and TailUs are the highest supported percentile over the
	// whole window and its value.
	TailP  float64 `json:"tail_percentile"`
	TailUs float64 `json:"tail_us"`
	// Slices is how many time slices contributed to P99us, SliceP99us
	// their individual p99s in time order.
	Slices     int       `json:"slices"`
	SliceP99us []float64 `json:"slice_p99_us,omitempty"`
	// OnTimeFrac is the share of the samples within onTimeLimit.
	OnTimeFrac float64 `json:"on_time_frac"`
}

// onTimeLimit is the latency limit behind on_time_frac: a timed frame is
// on time when it is delivered within this long of its due time.
const onTimeLimit = time.Millisecond

// summarize reduces per-slice latency samples (nanoseconds) to the
// reported figures: p50 over the whole window, p99 as the median of the
// per-slice p99s (slices too small to support p99 are skipped; if none
// qualifies the whole-window p99 is used), the highest percentile the
// whole sample supports, and the share of samples within onTimeLimit.
func summarize(slices [][]uint32) latencySummary {
	var all []uint32
	var p99s []float64
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		all = append(all, s...)
		if highestSupported(len(s)) >= 0.99 {
			p99s = append(p99s, percentile(s, 0.99))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sum := latencySummary{Samples: len(all), Slices: len(p99s)}
	for _, v := range p99s {
		sum.SliceP99us = append(sum.SliceP99us, v/1e3)
	}
	if len(all) == 0 {
		return sum
	}
	sum.P50us = percentile(all, 0.50) / 1e3
	sum.P90us = percentile(all, 0.90) / 1e3
	if len(p99s) > 0 {
		sum.P99us = median(p99s) / 1e3
	} else {
		sum.P99us = percentile(all, 0.99) / 1e3
	}
	onTime := sort.Search(len(all), func(i int) bool { return all[i] > uint32(onTimeLimit) })
	sum.OnTimeFrac = float64(onTime) / float64(len(all))
	sum.TailP = highestSupported(len(all))
	sum.TailUs = percentile(all, sum.TailP) / 1e3
	return sum
}
