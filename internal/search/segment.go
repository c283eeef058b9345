package search

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"videocloud/internal/hdfs"
)

// segmentWire is the serialized form of an index segment. Nutch stores its
// index segments in HDFS; so do we — replicated blocks mean the index
// survives node failures, "to lower damage risks caused by hosts" (§III).
type segmentWire struct {
	Postings map[string][]posting
	DocLen   map[int64]float64
	DocTerms map[int64]map[string]float64
	Docs     int
}

// Encode serializes the index into a byte segment.
func (ix *Index) Encode() ([]byte, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	err := enc.Encode(segmentWire{
		Postings: ix.postings, DocLen: ix.docLen, DocTerms: ix.docTerms, Docs: ix.docs,
	})
	if err != nil {
		return nil, fmt.Errorf("search: encode segment: %w", err)
	}
	return buf.Bytes(), nil
}

// SaveSegment writes the index as an HDFS file with the given replication.
func (ix *Index) SaveSegment(client *hdfs.Client, path string, replication int) error {
	data, err := ix.Encode()
	if err != nil {
		return err
	}
	// Replace any previous segment at this path (periodic re-index).
	if _, serr := client.Stat(path); serr == nil {
		if derr := client.Remove(path); derr != nil {
			return derr
		}
	}
	return client.WriteFile(path, data, replication)
}
