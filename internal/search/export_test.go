package search

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"videocloud/internal/hdfs"
)

// Merge folds other's postings into ix (used to combine MapReduce-built
// partial indexes). Documents present in both panic: partitions must be
// disjoint.
func (ix *Index) Merge(other *Index) {
	other.mu.RLock()
	defer other.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for id, n := range other.docLen {
		if _, dup := ix.docLen[id]; dup {
			panic(fmt.Sprintf("search: merge with overlapping document %d", id))
		}
		ix.docLen[id] = n
		ix.docs++
	}
	for id, tf := range other.docTerms {
		ix.docTerms[id] = tf
	}
	for term, list := range other.postings {
		ix.postings[term] = append(ix.postings[term], list...)
	}
}

// LoadSegment reads an index segment from HDFS.
func LoadSegment(client *hdfs.Client, path string) (*Index, error) {
	data, err := client.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeIndex(data)
}

// DecodeIndex reconstructs an index from a segment.
func DecodeIndex(data []byte) (*Index, error) {
	var wire segmentWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("search: decode segment: %w", err)
	}
	ix := NewIndex()
	if wire.Postings != nil {
		ix.postings = wire.Postings
	}
	if wire.DocLen != nil {
		ix.docLen = wire.DocLen
	}
	if wire.DocTerms != nil {
		ix.docTerms = wire.DocTerms
	}
	ix.docs = wire.Docs
	return ix, nil
}
