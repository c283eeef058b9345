// Quickstart: boot the whole reproduced stack with one call, inspect it,
// upload a video through the public API, search for it, and print where its
// bytes physically live. This is the 60-second tour of the system the paper
// builds (IaaS + Hadoop PaaS + video SaaS).
package main

import (
	"context"
	"fmt"
	"log"

	"videocloud"
)

func main() {
	// One call boots 4 simulated hosts, deploys the service group
	// (NameNode VM, 3 DataNode VMs, web VM), assembles HDFS/MapReduce on
	// the data VMs and starts the site.
	vc, err := videocloud.New(videocloud.Config{})
	if err != nil {
		log.Fatal(err)
	}
	st := vc.Status()
	fmt.Printf("cloud up: %d hosts, %d VMs, virtual boot time %.0fs\n",
		st.Hosts, len(st.VMs), st.VirtualNow.Seconds())
	for _, vm := range st.VMs {
		fmt.Printf("  %-14s %-8s host=%-6s ip=%s\n", vm.Name, vm.State, vm.Host, vm.IP)
	}

	// Synthesize a "camera upload" and push it through the full pipeline:
	// probe -> parallel convert on the data VMs -> store in HDFS -> index.
	src := videocloud.MediaSpec{Codec: "mpeg4", Res: videocloud.R480p,
		FPS: 30, GOPSeconds: 2, BitrateBps: 300_000}
	data, err := videocloud.GenerateVideo(src, 90, 42)
	if err != nil {
		log.Fatal(err)
	}
	id, err := vc.Site().ProcessUpload(context.Background(), 1, "My first cloud video", "quickstart demo upload", data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuploaded video %d (%d KB source), converting...\n", id, len(data)>>10)
	vc.Site().DrainTranscodes() // the upload returns at once; wait for the farm to publish it

	// Search finds it.
	hits := vc.Site().Index().Search("first cloud", 5)
	fmt.Printf("search 'first cloud' -> %d hit(s), top doc %d\n", len(hits), hits[0].Doc)

	// Its converted bytes live as replicated HDFS blocks on the data VMs, one
	// object per delivery segment; this is the first.
	blocks, err := vc.HDFS().Client("").BlockLocations(fmt.Sprintf("/videocloud/segments/%d-720p-0.vcf", id))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segment 0 stored as %d HDFS block(s):\n", len(blocks))
	for _, b := range blocks {
		fmt.Printf("  block %d (%d KB) on %v\n", b.ID, b.Length>>10, b.Locations)
	}
}
