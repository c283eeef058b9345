// Auto-scaling walkthrough (the paper's conclusion + its reference [28]):
// a streaming fleet tracks a day of video-on-demand load. Demand follows a
// diurnal wave with Zipf title popularity; the elastic controller
// re-evaluates every 5 virtual minutes, boots VMs toward the demand-implied
// fleet size and drains them gracefully when load falls.
// The whole day runs in well under a second of wall time on the
// discrete-event clock.
package main

import (
	"fmt"
	"log"
	"time"

	"videocloud/internal/nebula"
	"videocloud/internal/virt"
	"videocloud/internal/workload"
)

const gb = int64(1) << 30

func main() {
	cloud := nebula.New(nebula.Options{})
	for i := 0; i < 12; i++ {
		if _, err := cloud.AddHost(fmt.Sprintf("node%d", i), 16, 1e9, 32*gb, 1000*gb); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cloud.Catalog().Register("streamer", 2*gb, 1); err != nil {
		log.Fatal(err)
	}

	// VoD demand: trough 2, evening peak 16 concurrent-stream units.
	demand := workload.Diurnal{Base: 2, PeakFactor: 8, PeakHour: 21}
	// Title popularity for flavour: show the Zipf head.
	zipf := workload.NewZipf(500, 0.9)
	sessions := workload.Generate(zipf, demand, 20*time.Hour, 20*time.Hour+10*time.Minute, 42)
	fmt.Printf("evening sample: %d sessions in 10 min; first watches title #%d\n\n",
		len(sessions), sessions[0].Video)

	scaler, err := nebula.NewElasticController(cloud, nebula.ElasticOptions{
		Template: nebula.Template{
			Name: "streamer", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
			Image: "streamer", Workload: &virt.StreamingServer{StreamRate: 8 << 20},
		},
		Min: 1, Max: 10,
		InstanceCapacity: 2, // stream-units one VM absorbs
		Signal:           demand.Rate,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := scaler.Start(5 * time.Minute); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	cloud.RunFor(24 * time.Hour)
	scaler.Stop()
	cloud.WaitIdle()
	fmt.Printf("simulated 24h in %v wall time\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("hour  load  fleet  util")
	for _, s := range scaler.History() {
		if s.At%time.Hour != 0 {
			continue
		}
		bar := ""
		for i := 0; i < s.Instances; i++ {
			bar += "#"
		}
		fmt.Printf("%4dh  %4.1f  %5d  %4.2f  %s\n",
			int(s.At.Hours()), s.Load, s.Instances, s.Util, bar)
	}
	st := scaler.Stats()
	fmt.Printf("\nscale-out events: %d, scale-in events: %d\n", st.ScaleOuts, st.ScaleIns)
}
