// Command onecloud runs the IaaS layer by itself: a pool of simulated KVM
// hosts managed by the OpenNebula-like orchestrator, exposed through the
// JSON management API (the stand-in for the web interface of Figures 7-10).
// Virtual time is paced against wall time so the cloud feels live.
//
// Usage:
//
//	onecloud -hosts 4 -listen :9680 -scale 10
//
// then, for example:
//
//	curl localhost:9680/api/hosts
//	curl -X POST localhost:9680/api/vms -d '{"name":"web","vcpus":2,"memory_mb":2048,"disk_gb":10,"image":"ubuntu-10.04","workload":"streaming","rate_mbps":8}'
//	curl localhost:9680/api/vms
//	curl -X POST localhost:9680/api/vms/1/migrate -d '{"host":"node2"}'
//
// With -demo the command instead scripts the paper's Figures 7-10 sequence
// (deploy VMs, live-migrate one, print the monitor) and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"videocloud/internal/nebula"
	"videocloud/internal/virt"
)

const gb = int64(1) << 30

// Stalled request headers and idle keep-alive connections are cut off.
const readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

func main() {
	hosts := flag.Int("hosts", 4, "number of simulated physical hosts")
	listen := flag.String("listen", ":9680", "management API listen address")
	scale := flag.Float64("scale", 10, "virtual seconds per wall second")
	demo := flag.Bool("demo", false, "run the Figures 7-10 demo script and exit")
	flag.Parse()

	cloud := nebula.New(nebula.Options{})
	for i := 1; i <= *hosts; i++ {
		if _, err := cloud.AddHost(fmt.Sprintf("node%d", i), 8, 1e9, 16*gb, 500*gb); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cloud.Catalog().Register("ubuntu-10.04", 2*gb, 1004); err != nil {
		log.Fatal(err)
	}

	if *demo {
		runDemo(cloud)
		return
	}

	cloud.Monitor().Enable(30 * time.Second)
	pacer := nebula.StartPacer(cloud, *scale)
	defer pacer.Stop()
	log.Printf("onecloud: %d hosts, image %q registered, API on %s (time x%g)",
		*hosts, "ubuntu-10.04", *listen, *scale)
	srv := &http.Server{Addr: *listen, Handler: nebula.NewAPI(cloud),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	log.Fatal(srv.ListenAndServe())
}

// runDemo scripts the paper's screenshots: deploy two VMs, show the
// monitor, live-migrate one VM to another node, show that it succeeded.
func runDemo(cloud *nebula.Cloud) {
	fmt.Println("== initial host pool (Figure 7) ==")
	id1, err := cloud.Submit(nebula.Template{
		Name: "webserver", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
		Image: "ubuntu-10.04", Workload: &virt.StreamingServer{StreamRate: 8 << 20},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cloud.Submit(nebula.Template{
		Name: "database", VCPUs: 2, MemoryBytes: 4 * gb, DiskBytes: 20 * gb,
		Image: "ubuntu-10.04", Workload: virt.HotspotWriter{Rate: 16 << 20},
	}); err != nil {
		log.Fatal(err)
	}
	cloud.WaitIdle()
	cloud.Monitor().SampleNow()
	fmt.Println(cloud.Monitor().UtilizationTable())

	rec, err := cloud.VM(id1)
	if err != nil {
		log.Fatal(err)
	}
	src := rec.HostName
	var dst string
	for _, h := range cloud.Hosts() {
		if h.Name != src && h.CanFit(rec.VM.Config) {
			dst = h.Name
			break
		}
	}
	fmt.Printf("== live migration of %s from %s to %s (Figures 8-9) ==\n", rec.Name(), src, dst)
	if err := cloud.LiveMigrate(id1, dst); err != nil {
		log.Fatal(err)
	}
	cloud.WaitIdle()
	rep := rec.LastMigration
	if rep == nil || !rep.Success {
		log.Fatalf("migration failed: %+v", rep)
	}
	fmt.Printf("== live migration is successful (Figure 10) ==\n")
	fmt.Printf("   rounds=%d moved=%.2f GB total=%.1fs downtime=%.0fms reason=%s\n",
		len(rep.Rounds), float64(rep.TotalBytes)/float64(gb),
		rep.TotalTime.Seconds(), float64(rep.Downtime.Milliseconds()), rep.Reason)
	cloud.Monitor().SampleNow()
	fmt.Println(cloud.Monitor().UtilizationTable())

	fmt.Println("== host maintenance: evacuate + re-enable ==")
	started, err := cloud.Evacuate(dst)
	if err != nil {
		log.Fatal(err)
	}
	cloud.WaitIdle()
	fmt.Printf("evacuated %s with %d live migration(s); re-enabling\n", dst, started)
	if err := cloud.Enable(dst); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== power-saving consolidation ==")
	plan := cloud.Consolidate()
	cloud.WaitIdle()
	fmt.Printf("%d move(s); empty hosts now: %v\n", len(plan.Moves), cloud.EmptyHosts())
	cloud.Monitor().SampleNow()
	fmt.Println(cloud.Monitor().UtilizationTable())
}
