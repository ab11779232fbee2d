package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of ds by nearest rank; ds is
// sorted in place. An empty slice yields 0.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the median of ds (the mean of the middle pair for an
// even count) without reordering ds; empty yields 0.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return s[n/2-1] + (s[n/2]-s[n/2-1])/2 // no overflow when a failed request (MaxInt64) is in the pair
}
