package search

import (
	"math"
	"sort"
	"sync"
)

// Document is one indexable item — for the video site, a video page with its
// title, description and tags flattened into Body.
type Document struct {
	ID    int64
	Title string
	Body  string
}

// titleBoost weights title matches above body matches, as the video site's
// relevance expects.
const titleBoost = 2.0

// posting records one document's occurrences of a term.
type posting struct {
	Doc int64
	// TF is the boost-weighted term frequency.
	TF float64
}

// Hit is one ranked search result.
type Hit struct {
	Doc   int64
	Score float64
}

// Index is an in-memory inverted index with TF-IDF ranking. It is safe for
// concurrent use; queries proceed under a read lock.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting
	docLen   map[int64]float64 // per-doc weight norm
	// docTerms is the forward index (doc -> term weights), which powers
	// MoreLikeThis ("related ranking methods", paper §IV-A).
	docTerms map[int64]map[string]float64
	docs     int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string][]posting),
		docLen:   make(map[int64]float64),
		docTerms: make(map[int64]map[string]float64),
	}
}

// Add indexes a document. Re-adding an existing ID replaces it.
func (ix *Index) Add(doc Document) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.docLen[doc.ID]; exists {
		ix.removeLocked(doc.ID)
	}
	tf := docTermWeights(doc)
	if len(tf) == 0 {
		// Still count the document so IDF stays meaningful.
		ix.docLen[doc.ID] = 0
		ix.docs++
		return
	}
	var norm float64
	for term, w := range tf {
		ix.postings[term] = append(ix.postings[term], posting{Doc: doc.ID, TF: w})
		norm += w * w
	}
	ix.docLen[doc.ID] = math.Sqrt(norm)
	ix.docTerms[doc.ID] = tf
	ix.docs++
}

// docTermWeights computes boost-weighted term frequencies for a document.
func docTermWeights(doc Document) map[string]float64 {
	tf := make(map[string]float64)
	for _, t := range Analyze(doc.Title) {
		tf[t] += titleBoost
	}
	for _, t := range Analyze(doc.Body) {
		tf[t]++
	}
	return tf
}

// Remove deletes a document from the index (a video was deleted by its
// uploader, §I "edit or delete uploaded videos").
func (ix *Index) Remove(id int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *Index) removeLocked(id int64) {
	if _, ok := ix.docLen[id]; !ok {
		return
	}
	for term, list := range ix.postings {
		kept := list[:0]
		for _, p := range list {
			if p.Doc != id {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, term)
		} else {
			ix.postings[term] = kept
		}
	}
	delete(ix.docLen, id)
	delete(ix.docTerms, id)
	ix.docs--
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Terms returns the vocabulary size.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Search ranks documents against the query with TF-IDF scoring and returns
// up to limit hits, best first. Documents matching more query terms always
// score above documents matching fewer (conjunctive tiers), matching how a
// video search should treat multi-word queries.
func (ix *Index) Search(query string, limit int) []Hit {
	terms := Analyze(query)
	if len(terms) == 0 || limit <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	scores := make(map[int64]float64)
	matched := make(map[int64]int)
	seen := make(map[string]bool)
	for _, term := range terms {
		if seen[term] {
			continue
		}
		seen[term] = true
		list := ix.postings[term]
		if len(list) == 0 {
			continue
		}
		idf := math.Log(1 + float64(ix.docs)/float64(len(list)))
		for _, p := range list {
			w := (1 + math.Log(p.TF)) * idf * idf
			if n := ix.docLen[p.Doc]; n > 0 {
				w /= n
			}
			scores[p.Doc] += w
			matched[p.Doc]++
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		// Tiering: each extra matched term dominates any score sum.
		hits = append(hits, Hit{Doc: doc, Score: s + 1000*float64(matched[doc]-1)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// MoreLikeThis returns up to limit documents most similar to doc id, best
// first, never including the document itself — the "related videos" list on
// the player page. Similarity is TF-IDF scoring with the source document's
// strongest terms used as the query.
func (ix *Index) MoreLikeThis(id int64, limit int) []Hit {
	if limit <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	tf, ok := ix.docTerms[id]
	if !ok {
		return nil
	}
	// Take the source's strongest terms by tf*idf.
	type tw struct {
		term   string
		weight float64
	}
	terms := make([]tw, 0, len(tf))
	for term, w := range tf {
		df := len(ix.postings[term])
		if df == 0 {
			continue
		}
		idf := math.Log(1 + float64(ix.docs)/float64(df))
		terms = append(terms, tw{term, w * idf})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].weight != terms[j].weight {
			return terms[i].weight > terms[j].weight
		}
		return terms[i].term < terms[j].term
	})
	const queryTerms = 10
	if len(terms) > queryTerms {
		terms = terms[:queryTerms]
	}
	scores := make(map[int64]float64)
	for _, t := range terms {
		list := ix.postings[t.term]
		idf := math.Log(1 + float64(ix.docs)/float64(len(list)))
		for _, p := range list {
			if p.Doc == id {
				continue
			}
			w := (1 + math.Log(p.TF)) * idf * t.weight
			if n := ix.docLen[p.Doc]; n > 0 {
				w /= n
			}
			scores[p.Doc] += w
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: doc, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}
