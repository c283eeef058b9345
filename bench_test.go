package videocloud

// BenchmarkExperiments runs every registered reproduction (DESIGN.md §4,
// EXPERIMENTS.md) as a sub-benchmark named by its id; the harness asserts the
// expected qualitative shape and panics on violation. Run:
//
//	go test -bench=. -benchmem
//	go test -bench='Experiments/E2$' -benchtime=1x
//
// Micro-benchmarks of the hot substrate paths follow.

import (
	"fmt"
	"testing"

	"videocloud/internal/experiments"
	"videocloud/internal/hdfs"
	"videocloud/internal/search"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			defer func() {
				if r := recover(); r != nil {
					b.Fatalf("experiment shape violation: %v", r)
				}
			}()
			for i := 0; i < b.N; i++ {
				e.Run()
			}
		})
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkIndexSearch measures ranked query latency on a 10k-video index.
func BenchmarkIndexSearch(b *testing.B) {
	ix := search.NewIndex()
	for i := 0; i < 10000; i++ {
		ix.Add(search.Document{
			ID:    int64(i + 1),
			Title: fmt.Sprintf("video %d cloud dance cooking", i),
			Body:  "kvm opennebula hadoop pop pasta tokyo description",
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.Search("cloud dance", 25); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkDBScan measures the LIKE-scan baseline on 10k rows.
func BenchmarkDBScan(b *testing.B) {
	db := videodb.New()
	db.CreateTable("videos", videodb.Column{Name: "title", Type: videodb.TString})
	for i := 0; i < 10000; i++ {
		db.Insert("videos", videodb.Row{"title": fmt.Sprintf("video %d cloud dance", i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.ScanSubstring("videos", "title", "cloud")
		if err != nil || len(rows) == 0 {
			b.Fatal("scan failed")
		}
	}
}

// BenchmarkHDFSWrite measures the replication pipeline (1 MiB file, RF 3).
func BenchmarkHDFSWrite(b *testing.B) {
	c := hdfs.NewCluster(4, 256*1024)
	cl := c.Client("")
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.WriteFile(fmt.Sprintf("/f%d", i), data, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHDFSRead measures replicated reads (1 MiB file, RF 3).
func BenchmarkHDFSRead(b *testing.B) {
	c := hdfs.NewCluster(4, 256*1024)
	cl := c.Client("")
	data := make([]byte, 1<<20)
	if err := cl.WriteFile("/f", data, 3); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.ReadFile("/f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscodeGOPs measures the byte-rewriting conversion path.
func BenchmarkTranscodeGOPs(b *testing.B) {
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000}
	dst := video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000}
	data, err := video.Generate(src, 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (video.Transcoder{}).Convert(data, dst); err != nil {
			b.Fatal(err)
		}
	}
}
