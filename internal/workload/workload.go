// Package workload models video-on-demand demand, following the literature
// the paper builds its motivation on (its refs [28][31][33]: VoD demand
// volatility, bandwidth auto-scaling, large-scale operational streaming):
//
//   - video popularity is Zipf-distributed — a few titles draw most views;
//   - session arrivals are Poisson within any short window;
//   - the arrival rate follows a diurnal wave with an evening peak.
//
// The experiment harness uses these generators to drive the site (E9b) and
// the auto-scaler (E11), and the tests verify the distributions' shapes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Zipf picks items 0..N-1 with P(rank k) ∝ 1/(k+1)^S — the canonical video
// popularity model (S near 0.8-1.0 in VoD measurement studies).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a popularity distribution over n items with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("workload: Zipf over %d items", n))
	}
	if s <= 0 {
		panic(fmt.Sprintf("workload: Zipf exponent %v", s))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Pick draws an item rank (0 = most popular).
func (z *Zipf) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Interarrival draws an exponential inter-arrival time for a Poisson
// process with the given rate (events/second).
func Interarrival(rng *rand.Rand, ratePerSec float64) time.Duration {
	if ratePerSec <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", ratePerSec))
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	secs := -math.Log(u) / ratePerSec
	return time.Duration(secs * float64(time.Second))
}

// Diurnal describes a 24-hour demand wave: rate(t) swings sinusoidally
// between Base and Base*PeakFactor, peaking at PeakHour. Bursts layer
// instantaneous flash crowds on top of the wave.
type Diurnal struct {
	// Base is the trough arrival rate (sessions/second).
	Base float64
	// PeakFactor is peak/trough (VoD studies report 3-10x).
	PeakFactor float64
	// PeakHour is the local hour of maximum demand (e.g. 21).
	PeakHour float64
	// Bursts are flash-crowd overlays: while raw t (not time-of-day) is
	// inside a burst window the diurnal rate is multiplied by its Factor.
	// Overlapping bursts compound. The step is instantaneous on both
	// edges — a viral link does not ramp.
	Bursts []Burst
}

// Burst is one flash-crowd window overlaid on the diurnal wave.
type Burst struct {
	// Start is the absolute offset at which the burst begins.
	Start time.Duration
	// Duration is how long the burst lasts.
	Duration time.Duration
	// Factor multiplies the diurnal rate inside the window (> 0;
	// typically 5-50 for a viral event).
	Factor float64
}

// Rate returns the arrival rate at time t. The sinusoidal component wraps
// every 24h; burst windows are matched against the raw offset, so a burst at
// Start=30h fires on day two, not every day.
func (d Diurnal) Rate(t time.Duration) float64 {
	if d.Base <= 0 || d.PeakFactor < 1 {
		panic(fmt.Sprintf("workload: bad diurnal %+v", d))
	}
	hours := math.Mod(t.Hours(), 24)
	phase := 2 * math.Pi * (hours - d.PeakHour) / 24
	// cos(phase)=1 at the peak hour, -1 twelve hours away.
	mid := (1 + d.PeakFactor) / 2
	amp := (d.PeakFactor - 1) / 2
	rate := d.Base * (mid + amp*math.Cos(phase))
	for _, b := range d.Bursts {
		if b.Factor <= 0 || b.Duration < 0 {
			panic(fmt.Sprintf("workload: bad burst %+v", b))
		}
		if t >= b.Start && t < b.Start+b.Duration {
			rate *= b.Factor
		}
	}
	return rate
}

// Session is one generated viewing session.
type Session struct {
	// Start is the virtual arrival time.
	Start time.Duration
	// Video is the popularity rank of the watched title.
	Video int
	// SeekFracs are time-bar positions the viewer drags to.
	SeekFracs []float64
	// WatchSeconds is how long the viewer stays.
	WatchSeconds int
}

// Generate produces the session arrivals of one window [from, to) under the
// diurnal wave, Zipf title choice, and viewer behaviour (0-2 seeks, watch
// time exponential around 120s). Deterministic for a given seed.
func Generate(z *Zipf, d Diurnal, from, to time.Duration, seed int64) []Session {
	rng := rand.New(rand.NewSource(seed))
	var out []Session
	t := from
	for {
		rate := d.Rate(t)
		t += Interarrival(rng, rate)
		if t >= to {
			return out
		}
		nSeeks := rng.Intn(3)
		seeks := make([]float64, nSeeks)
		for i := range seeks {
			seeks[i] = rng.Float64() * 0.95
		}
		watch := int(-math.Log(1-rng.Float64())*120) + 5
		out = append(out, Session{
			Start: t, Video: z.Pick(rng), SeekFracs: seeks, WatchSeconds: watch,
		})
	}
}
