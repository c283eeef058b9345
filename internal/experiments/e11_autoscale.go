package experiments

import (
	"fmt"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/nebula"
	"videocloud/internal/virt"
	"videocloud/internal/workload"
)

// E11AutoScaling plays out a full virtual day of video-on-demand load
// against an auto-scaled streaming fleet — the elasticity the paper's
// conclusion promises and its reference [28] (cloud bandwidth auto-scaling
// for VoD) formalizes. Offered demand follows a diurnal wave (trough 2,
// peak 16 concurrent-stream units at 21:00); each streaming VM absorbs 2
// units; the elastic controller evaluates every 5 virtual minutes.
//
// Expected shape: the fleet tracks the wave (small overnight, largest
// around the evening peak), per-instance utilization stays inside the
// controller's hysteresis band for the vast majority of samples after
// warm-up, and the fleet returns to the floor after the peak.
func E11AutoScaling() *metrics.Table {
	t := metrics.NewTable("E11 — auto-scaled streaming fleet over a VoD day",
		"window", "avg_load", "avg_fleet", "max_fleet", "util_in_band_pct")
	cloud := nebula.New(nebula.Options{})
	for i := 0; i < 12; i++ {
		if _, err := cloud.AddHost(fmt.Sprintf("node%d", i), 16, 1e9, 32*gb, 1000*gb); err != nil {
			panic(err)
		}
	}
	if _, err := cloud.Catalog().Register("streamer-image", 2*gb, 11); err != nil {
		panic(err)
	}
	demand := workload.Diurnal{Base: 2, PeakFactor: 8, PeakHour: 21}
	// The hysteresis band is named here (the controller's defaults) because
	// the in-band shape check below reads the same two numbers.
	const hiLoad, loLoad = 0.8, 0.3
	scaler, err := nebula.NewElasticController(cloud, nebula.ElasticOptions{
		Template: nebula.Template{
			Name: "streamer", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
			Image: "streamer-image", Workload: &virt.StreamingServer{StreamRate: 8 << 20},
		},
		Min: 1, Max: 10,
		InstanceCapacity: 2,
		HiLoad:           hiLoad, LoLoad: loLoad,
		Signal: demand.Rate,
	})
	if err != nil {
		panic(err)
	}
	if err := scaler.Start(5 * time.Minute); err != nil {
		panic(err)
	}
	cloud.RunFor(24 * time.Hour)
	scaler.Stop()
	cloud.WaitIdle()

	hist := scaler.History()
	check(len(hist) > 200, "E11: only %d samples", len(hist))

	type window struct {
		name     string
		from, to time.Duration
	}
	// The sinusoid peaks at 21:00, so its trough is 09:00.
	windows := []window{
		{"trough 07-11h", 7 * time.Hour, 11 * time.Hour},
		{"shoulder 13-17h", 13 * time.Hour, 17 * time.Hour},
		{"peak 19-23h", 19 * time.Hour, 23 * time.Hour},
	}
	fleetAvg := map[string]float64{}
	for _, w := range windows {
		var loadSum, fleetSum float64
		maxFleet, n, inBand := 0, 0, 0
		for _, s := range hist {
			if s.At < w.from || s.At >= w.to {
				continue
			}
			n++
			loadSum += s.Load
			fleetSum += float64(s.Instances)
			if s.Instances > maxFleet {
				maxFleet = s.Instances
			}
			if s.Util <= hiLoad && s.Util >= loLoad {
				inBand++
			}
		}
		check(n > 0, "E11: window %q empty", w.name)
		bandPct := 100 * float64(inBand) / float64(n)
		t.AddRow(w.name, loadSum/float64(n), fleetSum/float64(n), maxFleet, bandPct)
		fleetAvg[w.name] = fleetSum / float64(n)
		check(bandPct > 60, "E11: %q utilization in band only %.0f%%", w.name, bandPct)
	}
	check(fleetAvg["peak 19-23h"] > 2*fleetAvg["trough 07-11h"],
		"E11: fleet does not track the wave (peak %.1f vs trough %.1f)",
		fleetAvg["peak 19-23h"], fleetAvg["trough 07-11h"])
	return t
}
