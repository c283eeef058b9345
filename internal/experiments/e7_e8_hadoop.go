package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"videocloud/internal/hdfs"
	"videocloud/internal/mapred"
	"videocloud/internal/metrics"
)

// E7HDFSReplication reproduces the Figure 11 / §III fault-tolerance claim:
// replicas are stored "to lower damage risks caused by hosts". For each
// replication factor, a 16-block file is written across 6 datanodes, one
// datanode is killed, and the harness measures whether every byte is still
// readable and how many blocks the NameNode re-replicates. Expected shape:
// RF=1 loses data on the first failure; RF>=2 survives, with write
// amplification equal to RF and repair traffic bounded by the dead node's
// share of blocks.
func E7HDFSReplication() *metrics.Table {
	t := metrics.NewTable("E7 — HDFS replication & node failure (16-block file, 6 datanodes)",
		"rf", "write_amp", "readable_after_kill", "blocks_repaired", "fully_replicated_after_repair")
	const blockSize = 128 * 1024
	data := make([]byte, 16*blockSize)
	rand.New(rand.NewSource(7)).Read(data)
	for _, rf := range []int{1, 2, 3} {
		c := hdfs.NewCluster(6, blockSize)
		cl := c.Client("")
		if err := cl.WriteFile("/videos/film.vcf", data, rf); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		var stored int64
		for i := 0; i < 6; i++ {
			stored += c.DataNode(fmt.Sprintf("dn%d", i)).Used()
		}
		writeAmp := float64(stored) / float64(len(data))

		// Kill the datanode holding the most replicas of this file.
		blocks, _ := cl.BlockLocations("/videos/film.vcf")
		counts := map[string]int{}
		for _, b := range blocks {
			for _, loc := range b.Locations {
				counts[loc]++
			}
		}
		victim, max := "", -1
		for _, name := range c.NameNode().LiveDataNodes() {
			if counts[name] > max {
				victim, max = name, counts[name]
			}
		}
		c.KillDataNode(victim)
		got, err := cl.ReadFile("/videos/film.vcf")
		readable := err == nil && bytes.Equal(got, data)
		repaired := c.RepairAll()
		healthy := len(c.NameNode().UnderReplicated(rf)) == 0

		t.AddRow(rf, writeAmp, readable, repaired, healthy)
		check(writeAmp > float64(rf)-0.01 && writeAmp < float64(rf)+0.01,
			"E7: rf=%d write amplification %.2f", rf, writeAmp)
		if rf == 1 {
			check(!readable, "E7: rf=1 survived a node failure — replication experiment is broken")
		} else {
			check(readable, "E7: rf=%d lost data on one failure", rf)
			check(repaired > 0 && healthy, "E7: rf=%d repair incomplete (%d repaired)", rf, repaired)
		}
	}
	return t
}

// wordCorpus returns an ~nBytes text corpus and its true word counts. It
// is seeded, so every call returns the same corpus: an experiment builds it
// once and stores it in each cluster it runs.
func wordCorpus(nBytes int) ([]byte, map[string]int) {
	words := []string{"cloud", "video", "kvm", "hadoop", "nutch", "stream",
		"virtual", "machine", "nebula", "ffmpeg"}
	rng := rand.New(rand.NewSource(13))
	var b strings.Builder
	counts := map[string]int{}
	for b.Len() < nBytes {
		w := words[rng.Intn(len(words))]
		counts[w]++
		b.WriteString(w)
		if rng.Intn(12) == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	return []byte(b.String()), counts
}

// storeCorpus writes corpus to path in c with two replicas.
func storeCorpus(c *hdfs.Cluster, path string, corpus []byte) {
	if err := c.Client("").WriteFile(path, corpus, 2); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

func wordCount(inputs []string) mapred.Job {
	return mapred.Job{
		Name:       "wordcount",
		InputPaths: inputs,
		Map: func(_ string, data []byte, emit func(k, v string)) error {
			for _, w := range strings.Fields(string(data)) {
				emit(w, "1")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			sum := 0
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				sum += n
			}
			emit(key, strconv.Itoa(sum))
			return nil
		},
	}
}

// E8MapReduceScaling reproduces Figure 12 and the §III-B locality argument:
// "each node reads the data stored in itself ... to avoid massive
// transmission". A wordcount over a 4 MiB corpus runs on 1..16 trackers,
// plus a locality-disabled ablation at 8 trackers. Expected shape: job time
// falls with trackers; with locality enabled most map tasks read local
// blocks; disabling locality slows the same job down.
func E8MapReduceScaling() *metrics.Table {
	t := metrics.NewTable("E8 — MapReduce scaling & data locality (Fig 12)",
		"trackers", "locality", "map_tasks", "local_frac", "job_s", "speedup")
	// 32 MiB over 1 MiB blocks with Hadoop-era constants scaled so task
	// time is data-dominated: a remote split pays a visible network toll.
	const corpusBytes = 32 << 20
	cfg := mapred.Config{
		TaskOverhead:  100 * time.Millisecond,
		MapThroughput: 30e6, NetBandwidth: 40e6,
	}
	corpus, want := wordCorpus(corpusBytes)
	run := func(n int, disableLocality bool) *mapred.JobResult {
		c := hdfs.NewCluster(n, 1<<20)
		storeCorpus(c, "/corpus.txt", corpus)
		trackers := make([]string, n)
		for i := range trackers {
			trackers[i] = fmt.Sprintf("dn%d", i)
		}
		runCfg := cfg
		runCfg.DisableLocality = disableLocality
		e, err := mapred.NewEngine(c, trackers, runCfg)
		if err != nil {
			panic(err)
		}
		res, err := e.Run(wordCount([]string{"/corpus.txt"}))
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return res
	}
	var base, prev float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		res := run(n, false)
		// Correctness at every scale.
		got := map[string]int{}
		for _, kv := range res.Output {
			c, _ := strconv.Atoi(kv.Value)
			got[kv.Key] = c
		}
		for w, c := range want {
			check(got[w] == c, "E8: %d trackers count[%s]=%d, want %d", n, w, got[w], c)
		}
		local := float64(res.LocalMaps) / float64(len(res.MapTasks))
		if n == 1 {
			base = secs(res.Duration)
		} else {
			check(secs(res.Duration) < prev, "E8: %d trackers not faster", n)
		}
		prev = secs(res.Duration)
		t.AddRow(n, "on", len(res.MapTasks), local, secs(res.Duration), base/secs(res.Duration))
	}
	// Ablation: locality off at 8 trackers.
	resOn := run(8, false)
	resOff := run(8, true)
	t.AddRow(8, "off", len(resOff.MapTasks),
		float64(resOff.LocalMaps)/float64(len(resOff.MapTasks)),
		secs(resOff.Duration), base/secs(resOff.Duration))
	check(resOff.Duration > resOn.Duration,
		"E8: disabling locality did not slow the job (%v vs %v)", resOff.Duration, resOn.Duration)
	check(resOn.LocalMaps > resOff.LocalMaps, "E8: locality scheduler found no extra local maps")
	return t
}
